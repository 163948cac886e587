(* Unit and property tests for lib/structures. *)

module Prng = Nue_structures.Prng
module Fib_heap = Nue_structures.Fib_heap
module Bitset = Nue_structures.Bitset

let test_case = Alcotest.test_case

(* {1 Prng} *)

let prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.int64 a) (Prng.int64 b)
  done

let prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  Alcotest.(check bool) "different seeds differ" false
    (Prng.int64 a = Prng.int64 b)

let prng_int_bounds () =
  let p = Prng.create 3 in
  for _ = 1 to 10_000 do
    let v = Prng.int p 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of range"
  done

let prng_int_covers () =
  let p = Prng.create 5 in
  let seen = Array.make 8 false in
  for _ = 1 to 1_000 do
    seen.(Prng.int p 8) <- true
  done;
  Alcotest.(check bool) "all residues seen" true (Array.for_all Fun.id seen)

let prng_float_bounds () =
  let p = Prng.create 11 in
  for _ = 1 to 10_000 do
    let v = Prng.float p 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.fail "float out of range"
  done

let prng_copy_independent () =
  let a = Prng.create 9 in
  ignore (Prng.int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copies agree" (Prng.int64 a) (Prng.int64 b);
  ignore (Prng.int64 a);
  let va = Prng.int64 a and vb = Prng.int64 b in
  Alcotest.(check bool) "then diverge by state" false (va = vb)

let prng_split_independent () =
  let a = Prng.create 13 in
  let b = Prng.split a in
  Alcotest.(check bool) "split streams differ" false
    (Prng.int64 a = Prng.int64 b)

let prng_shuffle_permutation () =
  let p = Prng.create 21 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle p a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let prng_sample_without_replacement () =
  let p = Prng.create 23 in
  let s = Prng.sample_without_replacement p 10 1000 in
  Alcotest.(check int) "size" 10 (Array.length s);
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun v ->
       if v < 0 || v >= 1000 then Alcotest.fail "out of range";
       if Hashtbl.mem tbl v then Alcotest.fail "duplicate";
       Hashtbl.add tbl v ())
    s;
  (* Dense case takes the shuffle path. *)
  let s2 = Prng.sample_without_replacement p 9 10 in
  Alcotest.(check int) "dense size" 9 (Array.length s2)

(* {1 Fib_heap} *)

let heap_insert_extract_sorted () =
  let h = Fib_heap.create () in
  let keys = [ 5.0; 1.0; 3.0; 2.0; 4.0; 0.5; 2.5 ] in
  List.iter (fun k -> ignore (Fib_heap.insert h ~key:k k)) keys;
  let out = ref [] in
  let rec drain () =
    match Fib_heap.extract_min h with
    | None -> ()
    | Some (v, k) ->
      Alcotest.(check (float 0.0)) "key=value" v k;
      out := k :: !out;
      drain ()
  in
  drain ();
  Alcotest.(check (list (float 0.0)))
    "sorted output" (List.rev (List.sort compare keys)) !out

let heap_decrease_key () =
  let h = Fib_heap.create () in
  let _a = Fib_heap.insert h ~key:10.0 "a" in
  let b = Fib_heap.insert h ~key:20.0 "b" in
  let _c = Fib_heap.insert h ~key:30.0 "c" in
  Fib_heap.decrease_key h b 1.0;
  Alcotest.(check (option string))
    "b first" (Some "b")
    (Option.map fst (Fib_heap.extract_min h))

let heap_decrease_key_rejects_increase () =
  let h = Fib_heap.create () in
  let a = Fib_heap.insert h ~key:1.0 () in
  Alcotest.check_raises "increase rejected"
    (Invalid_argument "Fib_heap.decrease_key: key increase") (fun () ->
        Fib_heap.decrease_key h a 2.0)

let heap_remove () =
  let h = Fib_heap.create () in
  let a = Fib_heap.insert h ~key:1.0 "a" in
  let _b = Fib_heap.insert h ~key:2.0 "b" in
  Fib_heap.remove h a;
  Alcotest.(check int) "size" 1 (Fib_heap.size h);
  Alcotest.(check bool) "a gone" false (Fib_heap.mem a);
  Alcotest.(check (option string))
    "b remains" (Some "b")
    (Option.map fst (Fib_heap.extract_min h))

let heap_size_tracking () =
  let h = Fib_heap.create () in
  Alcotest.(check bool) "empty" true (Fib_heap.is_empty h);
  let nodes = List.init 100 (fun i -> Fib_heap.insert h ~key:(float_of_int i) i) in
  Alcotest.(check int) "100 inserted" 100 (Fib_heap.size h);
  List.iteri (fun i n -> if i mod 2 = 0 then Fib_heap.remove h n) nodes;
  Alcotest.(check int) "50 left" 50 (Fib_heap.size h)

let heap_interleaved_ops () =
  (* Mirror of a list-based priority queue under a random op sequence. *)
  let p = Prng.create 77 in
  let h = Fib_heap.create () in
  let model = Hashtbl.create 64 in
  let handles = Hashtbl.create 64 in
  let next = ref 0 in
  for _ = 1 to 2_000 do
    match Prng.int p 4 with
    | 0 | 1 ->
      let key = Prng.float p 1000.0 in
      let id = !next in
      incr next;
      Hashtbl.replace model id key;
      Hashtbl.replace handles id (Fib_heap.insert h ~key id)
    | 2 ->
      (match Fib_heap.extract_min h with
       | None ->
         Alcotest.(check int) "model empty too" 0 (Hashtbl.length model)
       | Some (id, k) ->
         let mk = Hashtbl.fold (fun _ v acc -> min v acc) model infinity in
         Alcotest.(check (float 1e-9)) "extracted global min" mk k;
         Hashtbl.remove model id)
    | _ ->
      (* Decrease a random live key. *)
      let live = Hashtbl.fold (fun id _ acc -> id :: acc) model [] in
      (match live with
       | [] -> ()
       | _ ->
         let id = List.nth live (Prng.int p (List.length live)) in
         let cur = Hashtbl.find model id in
         let nk = cur /. 2.0 in
         Hashtbl.replace model id nk;
         Fib_heap.decrease_key h (Hashtbl.find handles id) nk)
  done;
  Alcotest.(check int) "sizes agree" (Hashtbl.length model) (Fib_heap.size h)

(* {1 Bitset} *)

let bitset_basics () =
  let s = Bitset.create 200 in
  Alcotest.(check int) "capacity" 200 (Bitset.capacity s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 199;
  Alcotest.(check bool) "mem 63" true (Bitset.mem s 63);
  Alcotest.(check bool) "mem 64" true (Bitset.mem s 64);
  Alcotest.(check bool) "not mem 1" false (Bitset.mem s 1);
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Bitset.remove s 63;
  Alcotest.(check bool) "removed" false (Bitset.mem s 63);
  Alcotest.(check (list int)) "to_list" [ 0; 64; 199 ] (Bitset.to_list s);
  Bitset.clear s;
  Alcotest.(check int) "cleared" 0 (Bitset.cardinal s)

let bitset_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Bitset: index out of range") (fun () ->
        Bitset.add s 10)

let bitset_iter_order () =
  let s = Bitset.create 50 in
  List.iter (Bitset.add s) [ 40; 3; 17 ];
  let acc = ref [] in
  Bitset.iter (fun i -> acc := i :: !acc) s;
  Alcotest.(check (list int)) "increasing order" [ 3; 17; 40 ]
    (List.rev !acc)

(* {1 QCheck properties} *)

let qcheck_heap_sort =
  QCheck2.Test.make ~name:"fib_heap sorts any float list" ~count:200
    QCheck2.Gen.(list (float_bound_exclusive 1e6))
    (fun keys ->
       let h = Fib_heap.create () in
       List.iter (fun k -> ignore (Fib_heap.insert h ~key:k k)) keys;
       let rec drain acc =
         match Fib_heap.extract_min h with
         | None -> List.rev acc
         | Some (_, k) -> drain (k :: acc)
       in
       drain [] = List.sort compare keys)

let qcheck_bitset_model =
  QCheck2.Test.make ~name:"bitset agrees with a set model" ~count:200
    QCheck2.Gen.(list (pair (int_range 0 99) bool))
    (fun ops ->
       let s = Bitset.create 100 in
       let model = Hashtbl.create 16 in
       List.iter
         (fun (i, add) ->
            if add then begin
              Bitset.add s i;
              Hashtbl.replace model i ()
            end
            else begin
              Bitset.remove s i;
              Hashtbl.remove model i
            end)
         ops;
       Bitset.cardinal s = Hashtbl.length model
       && List.for_all (fun (i, _) -> Bitset.mem s i = Hashtbl.mem model i) ops)

let suite =
  [ ("prng",
     [ test_case "deterministic" `Quick prng_deterministic;
       test_case "seed sensitivity" `Quick prng_seed_sensitivity;
       test_case "int bounds" `Quick prng_int_bounds;
       test_case "int covers residues" `Quick prng_int_covers;
       test_case "float bounds" `Quick prng_float_bounds;
       test_case "copy independent" `Quick prng_copy_independent;
       test_case "split independent" `Quick prng_split_independent;
       test_case "shuffle is a permutation" `Quick prng_shuffle_permutation;
       test_case "sample without replacement" `Quick
         prng_sample_without_replacement ]);
    ("fib_heap",
     [ test_case "insert/extract sorted" `Quick heap_insert_extract_sorted;
       test_case "decrease_key" `Quick heap_decrease_key;
       test_case "decrease_key rejects increase" `Quick
         heap_decrease_key_rejects_increase;
       test_case "remove" `Quick heap_remove;
       test_case "size tracking" `Quick heap_size_tracking;
       test_case "interleaved ops vs model" `Quick heap_interleaved_ops;
       QCheck_alcotest.to_alcotest qcheck_heap_sort ]);
    ("bitset",
     [ test_case "basics" `Quick bitset_basics;
       test_case "bounds" `Quick bitset_bounds;
       test_case "iter order" `Quick bitset_iter_order;
       QCheck_alcotest.to_alcotest qcheck_bitset_model ]) ]
