(* Tests for the observability layer (Nue_obs.Obs): registry
   idempotence, disabled-path semantics (no counting, no allocation,
   identical routing results), snapshot/reset round-trips, and the
   stability of the JSON rendering under key ordering. *)

module Obs = Nue_obs.Obs
module Experiment = Nue_pipeline.Experiment
module Json = Nue_pipeline.Json
module Table = Nue_routing.Table
module Nue = Nue_core.Nue

let test_case = Alcotest.test_case

(* Every test leaves the registry disabled and zeroed so instrumented
   production code never bleeds counts between tests. *)
let scrub () =
  Obs.disable ();
  Obs.reset ()

let registration_idempotent () =
  scrub ();
  let a = Obs.counter "test.obs.idem" in
  let b = Obs.counter "test.obs.idem" in
  Obs.enable ();
  Obs.incr a;
  Obs.incr b;
  Obs.add a 3;
  scrub ();
  (* peek reads through the shared cell regardless of the flag... *)
  Alcotest.(check int) "after reset" 0 (Obs.peek a);
  Obs.enable ();
  Obs.incr a;
  Alcotest.(check int) "one cell behind both handles" 1 (Obs.peek b);
  scrub ()

let disabled_counts_nothing () =
  scrub ();
  let c = Obs.counter "test.obs.disabled" in
  Obs.incr c;
  Obs.add c 1000;
  Alcotest.(check int) "no counting while disabled" 0 (Obs.peek c);
  let snap = Obs.snapshot () in
  List.iter
    (fun (name, v) -> Alcotest.(check int) (name ^ " zero") 0 v)
    snap

let disabled_hot_path_does_not_allocate () =
  scrub ();
  let c = Obs.counter "test.obs.alloc" in
  (* Warm up so any lazy setup is allocated before measuring. *)
  Obs.incr c;
  Obs.add c 2;
  let w0 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Obs.incr c;
    Obs.add c 2
  done;
  let w1 = Gc.minor_words () in
  (* The two Gc.minor_words calls box a float each; anything beyond a
     small constant means the hot path allocates per call. *)
  Alcotest.(check bool) "incr/add allocation-free" true (w1 -. w0 < 256.0);
  Alcotest.(check int) "nothing counted" 0 (Obs.peek c)

let same_results_with_and_without_tracing () =
  (* The instrumentation must be observation-only: routing the same
     spec with tracing on and off yields the identical table. *)
  scrub ();
  let built = Helpers.random_built ~seed:21 () in
  let route () =
    match (Experiment.run ~vcs:4 ~engine:"nue" built).Experiment.table with
    | Ok t -> t
    | Error _ -> Alcotest.fail "nue failed"
  in
  let plain = route () in
  let traced, snap = Experiment.with_trace route in
  Alcotest.(check bool) "tracing captured work" true
    (Obs.find snap "cdg.usable_calls" > 0);
  Alcotest.(check int) "same vls" plain.Table.num_vls traced.Table.num_vls;
  Array.iteri
    (fun i plain_row ->
       Alcotest.(check (array int)) (Printf.sprintf "next_channel row %d" i)
         plain_row traced.Table.next_channel.(i))
    plain.Table.next_channel;
  Alcotest.(check bool) "flag restored" false (Obs.enabled ());
  scrub ()

let snapshot_reset_round_trip () =
  scrub ();
  let c = Obs.counter "test.obs.round" in
  Obs.enable ();
  Obs.incr c;
  Obs.add c 41;
  let snap = Obs.snapshot () in
  Alcotest.(check int) "counter snapshotted" 42
    (Obs.find snap "test.obs.round");
  Alcotest.(check int) "absent counter reads 0" 0
    (Obs.find snap "test.obs.never_registered");
  Obs.reset ();
  let snap2 = Obs.snapshot () in
  Alcotest.(check int) "reset zeroes counter" 0
    (Obs.find snap2 "test.obs.round");
  (* Registration survives the reset: the name still appears. *)
  Alcotest.(check bool) "name retained" true
    (List.mem_assoc "test.obs.round" snap2);
  scrub ()

let snapshot_sorted_by_name () =
  scrub ();
  (* Register in anti-alphabetical order and mutate in a third order:
     the snapshot must come out sorted by name regardless. *)
  let z = Obs.counter "test.obs.zz" in
  let a = Obs.counter "test.obs.aa" in
  let m = Obs.counter "test.obs.mm" in
  Obs.enable ();
  Obs.incr m;
  Obs.incr z;
  Obs.incr a;
  let snap = Obs.snapshot () in
  let names = List.map fst snap in
  Alcotest.(check (list string)) "sorted" (List.sort compare names) names;
  scrub ()

let json_stable_under_key_ordering () =
  (* trace_to_json must not depend on the order of the snapshot's assoc
     lists: shuffled input renders to the identical string. *)
  let counters =
    [ ("cdg.usable_calls", 10); ("cdg.memo.hit_used", 4);
      ("cdg.memo.hit_blocked", 1); ("heap.inserts", 7); ("pk.add_calls", 3) ]
  in
  let sorted = List.sort (fun (x, _) (y, _) -> compare x y) counters in
  Alcotest.(check string) "identical rendering"
    (Json.to_string (Experiment.trace_to_json sorted))
    (Json.to_string (Experiment.trace_to_json (List.rev counters)))

let trace_json_shape () =
  scrub ();
  let built = Helpers.random_built ~seed:5 () in
  let _, snap =
    Experiment.with_trace (fun () ->
        ignore (Experiment.run ~vcs:4 ~engine:"nue" built))
  in
  let fields = function
    | Json.Obj f -> f
    | _ -> Alcotest.fail "not an object"
  in
  let keys j = List.map fst (fields j) in
  let field name j = List.assoc name (fields j) in
  let trace = Experiment.trace_to_json snap in
  Alcotest.(check (list string)) "top-level keys" [ "counters"; "derived" ]
    (keys trace);
  Alcotest.(check bool) "cdg.usable_calls counted" true
    (List.mem "cdg.usable_calls" (keys (field "counters" trace)));
  List.iter
    (fun k ->
       Alcotest.(check bool) (k ^ " derived") true
         (List.mem k (keys (field "derived" trace))))
    [ "omega_memo_hit_rate"; "heap_ops" ];
  scrub ()

let derived_rates_are_ratios () =
  scrub ();
  let built = Helpers.random_built ~seed:9 () in
  let _, snap =
    Experiment.with_trace (fun () ->
        ignore (Experiment.run ~vcs:2 ~engine:"nue" built))
  in
  let hits =
    Obs.find snap "cdg.memo.hit_blocked" + Obs.find snap "cdg.memo.hit_used"
  in
  let calls = Obs.find snap "cdg.usable_calls" in
  Alcotest.(check bool) "calls observed" true (calls > 0);
  (match Experiment.trace_to_json snap with
   | Json.Obj fields ->
     (match List.assoc "derived" fields with
      | Json.Obj derived ->
        (match List.assoc "omega_memo_hit_rate" derived with
         | Json.Float r ->
           Alcotest.(check (float 1e-9)) "hit rate"
             (float_of_int hits /. float_of_int calls) r
         | _ -> Alcotest.fail "hit rate not a float")
      | _ -> Alcotest.fail "no derived object")
   | _ -> Alcotest.fail "trace not an object");
  scrub ()

let suite =
  [ ("obs:registry",
     [ test_case "registration idempotent" `Quick registration_idempotent;
       test_case "disabled counts nothing" `Quick disabled_counts_nothing;
       test_case "disabled hot path allocation-free" `Quick
         disabled_hot_path_does_not_allocate;
       test_case "tracing is observation-only" `Quick
         same_results_with_and_without_tracing ]);
    ("obs:snapshot",
     [ test_case "snapshot/reset round-trip" `Quick snapshot_reset_round_trip;
       test_case "sorted by name" `Quick snapshot_sorted_by_name ]);
    ("obs:json",
     [ test_case "stable under key ordering" `Quick
         json_stable_under_key_ordering;
       test_case "trace shape" `Quick trace_json_shape;
       test_case "derived rates" `Quick derived_rates_are_ratios ]) ]
