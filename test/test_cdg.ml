(* Tests for lib/cdg: digraphs, the Pearce-Kelly incremental DAG and the
   complete channel dependency graph with its omega bookkeeping. *)

module Network = Nue_netgraph.Network
module Digraph = Nue_cdg.Digraph
module Acyclic_digraph = Nue_cdg.Acyclic_digraph
module Complete_cdg = Nue_cdg.Complete_cdg
module Prng = Nue_structures.Prng
module Obs = Nue_obs.Obs

let test_case = Alcotest.test_case

(* {1 Digraph} *)

let digraph_edges () =
  let g = Digraph.create 4 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 1;
  Alcotest.(check int) "multiplicity" 2 (Digraph.multiplicity g 0 1);
  Alcotest.(check int) "distinct edges" 1 (Digraph.num_edges g);
  Digraph.remove_edge g 0 1;
  Alcotest.(check bool) "still there" true (Digraph.mem_edge g 0 1);
  Digraph.remove_edge g 0 1;
  Alcotest.(check bool) "gone" false (Digraph.mem_edge g 0 1);
  Alcotest.(check bool) "remove absent raises" true
    (match Digraph.remove_edge g 0 1 with
     | exception Invalid_argument _ -> true
     | _ -> false)

let digraph_acyclic_dag () =
  let g = Digraph.create 5 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 2;
  Digraph.add_edge g 0 2;
  Digraph.add_edge g 2 3;
  Alcotest.(check bool) "dag" true (Digraph.is_acyclic g);
  Alcotest.(check (option (list int))) "no cycle" None (Digraph.find_cycle g)

let digraph_finds_cycle () =
  let g = Digraph.create 5 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 2;
  Digraph.add_edge g 2 0;
  Digraph.add_edge g 3 4;
  (match Digraph.find_cycle g with
   | None -> Alcotest.fail "expected a cycle"
   | Some vs ->
     Alcotest.(check int) "cycle length" 3 (List.length vs);
     (* Consecutive vertices are edges and the cycle closes. *)
     let arr = Array.of_list vs in
     let n = Array.length arr in
     for i = 0 to n - 1 do
       Alcotest.(check bool) "edge exists" true
         (Digraph.mem_edge g arr.(i) arr.((i + 1) mod n))
     done)

let digraph_self_loop_cycle () =
  let g = Digraph.create 2 in
  Digraph.add_edge g 1 1;
  Alcotest.(check bool) "self loop is a cycle" false (Digraph.is_acyclic g)

let digraph_would_close_cycle () =
  let g = Digraph.create 4 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 2;
  Alcotest.(check bool) "2->0 closes" true (Digraph.would_close_cycle g 2 0);
  Alcotest.(check bool) "0->3 fine" false (Digraph.would_close_cycle g 0 3);
  Alcotest.(check bool) "self edge closes" true (Digraph.would_close_cycle g 3 3)

(* {1 Acyclic_digraph (Pearce-Kelly)} *)

let pk_accepts_dag () =
  let g = Acyclic_digraph.create 6 in
  Alcotest.(check bool) "1" true (Acyclic_digraph.try_add_edge g 5 0);
  Alcotest.(check bool) "2" true (Acyclic_digraph.try_add_edge g 0 3);
  Alcotest.(check bool) "3" true (Acyclic_digraph.try_add_edge g 3 1);
  Alcotest.(check bool) "4" true (Acyclic_digraph.try_add_edge g 5 1);
  (* Topological order respects all edges. *)
  List.iter
    (fun (u, v) ->
       Alcotest.(check bool) "order consistent" true
         (Acyclic_digraph.order g u < Acyclic_digraph.order g v))
    [ (5, 0); (0, 3); (3, 1); (5, 1) ]

let pk_rejects_cycle () =
  let g = Acyclic_digraph.create 4 in
  ignore (Acyclic_digraph.try_add_edge g 0 1);
  ignore (Acyclic_digraph.try_add_edge g 1 2);
  ignore (Acyclic_digraph.try_add_edge g 2 3);
  Alcotest.(check bool) "closing edge rejected" false
    (Acyclic_digraph.try_add_edge g 3 0);
  Alcotest.(check bool) "graph unchanged" false (Acyclic_digraph.mem_edge g 3 0);
  (* The DAG still accepts other edges afterwards. *)
  Alcotest.(check bool) "other edge ok" true (Acyclic_digraph.try_add_edge g 0 3)

let pk_multiplicity_and_removal () =
  let g = Acyclic_digraph.create 3 in
  ignore (Acyclic_digraph.try_add_edge g 0 1);
  ignore (Acyclic_digraph.try_add_edge g 0 1);
  Alcotest.(check int) "multiplicity 2" 2 (Acyclic_digraph.multiplicity g 0 1);
  Acyclic_digraph.remove_edge g 0 1;
  Alcotest.(check bool) "still present" true (Acyclic_digraph.mem_edge g 0 1);
  Acyclic_digraph.remove_edge g 0 1;
  Alcotest.(check bool) "absent" false (Acyclic_digraph.mem_edge g 0 1);
  (* Removal re-enables previously cycle-closing edges. *)
  ignore (Acyclic_digraph.try_add_edge g 1 0);
  Alcotest.(check bool) "reverse now fine" true (Acyclic_digraph.mem_edge g 1 0)

let pk_agrees_with_offline_check () =
  (* Random edge insertions: PK must accept exactly the edges an
     offline DAG check accepts (given identical insertion order). *)
  let p = Prng.create 99 in
  for _round = 1 to 20 do
    let n = 15 in
    let pk = Acyclic_digraph.create n in
    let model = Digraph.create n in
    for _ = 1 to 60 do
      let u = Prng.int p n and v = Prng.int p n in
      if u <> v then begin
        let model_ok = not (Digraph.would_close_cycle model u v) in
        let pk_ok = Acyclic_digraph.try_add_edge pk u v in
        if model_ok <> pk_ok then
          Alcotest.failf "disagreement on %d->%d" u v;
        if model_ok then Digraph.add_edge model u v
      end
    done
  done

let pk_stress_order_invariant () =
  let p = Prng.create 123 in
  let n = 40 in
  let g = Acyclic_digraph.create n in
  let edges = ref [] in
  for _ = 1 to 400 do
    let u = Prng.int p n and v = Prng.int p n in
    if u <> v && Acyclic_digraph.try_add_edge g u v then
      edges := (u, v) :: !edges
  done;
  List.iter
    (fun (u, v) ->
       Alcotest.(check bool) "ord(u) < ord(v)" true
         (Acyclic_digraph.order g u < Acyclic_digraph.order g v))
    !edges;
  (* Orders form a permutation. *)
  let seen = Array.make n false in
  for v = 0 to n - 1 do
    let o = Acyclic_digraph.order g v in
    if o < 0 || o >= n || seen.(o) then Alcotest.fail "order not a permutation";
    seen.(o) <- true
  done

(* The shared reorder step against the list-sorting formulation it
   replaced: B's vertices in old order, then F's, take the sorted pool of
   their old slots. Sizes straddle the insertion-sort/radix threshold. *)
let pk_reassign_matches_reference () =
  let p = Prng.create 5 in
  List.iter
    (fun (n, nback, nfwd) ->
       let ord = Array.init n (fun i -> i) in
       Prng.shuffle p ord;
       let vs = Array.init n (fun i -> i) in
       Prng.shuffle p vs;
       let back = Array.to_list (Array.sub vs 0 nback)
       and fwd = Array.to_list (Array.sub vs nback nfwd) in
       let expected = Array.copy ord in
       let by_ord a b = compare ord.(a) ord.(b) in
       let moved = List.sort by_ord back @ List.sort by_ord fwd in
       List.iter2
         (fun v slot -> expected.(v) <- slot)
         moved
         (List.sort compare (List.map (fun v -> ord.(v)) moved));
       let s = Acyclic_digraph.scratch n in
       List.iteri (fun i v -> (Acyclic_digraph.bwd s).(i) <- v) back;
       List.iteri (fun i v -> (Acyclic_digraph.fwd s).(i) <- v) fwd;
       Acyclic_digraph.reassign s ~ord ~nback ~nfwd;
       Alcotest.(check (array int))
         (Printf.sprintf "n=%d |B|=%d |F|=%d" n nback nfwd)
         expected ord)
    [ (10, 1, 1); (10, 3, 4); (50, 0, 20); (100, 40, 33); (1000, 300, 500);
      (70000, 20000, 30000) ]

(* {1 Complete CDG} *)

let cdg_fig3_structure () =
  (* Fig. 3: the complete CDG of the 5-ring with shortcut has 12
     vertices (channels) and 18 dependency edges. *)
  let net = Helpers.ring5 ~with_terminals:false () in
  let cdg = Complete_cdg.create net in
  Alcotest.(check int) "12 channels" 12 (Complete_cdg.num_channels cdg);
  Alcotest.(check int) "18 dependencies" 18 (Complete_cdg.num_edges cdg);
  (* Everything starts unused. *)
  let used = ref 0 and blocked = ref 0 and unused = ref 0 in
  Complete_cdg.count_states cdg ~used ~blocked ~unused;
  Alcotest.(check int) "no used" 0 !used;
  Alcotest.(check int) "no blocked" 0 !blocked;
  Alcotest.(check int) "all unused" 18 !unused

let cdg_no_u_turns () =
  let net = Helpers.random_net () in
  let cdg = Complete_cdg.create net in
  for c = 0 to Complete_cdg.num_channels cdg - 1 do
    Array.iter
      (fun q ->
         Alcotest.(check bool) "no 180-degree turn" false
           (Network.dst net q = Network.src net c))
      (Complete_cdg.succ cdg c)
  done

let cdg_pred_slots () =
  let net = Helpers.ring5 ~with_terminals:false () in
  let cdg = Complete_cdg.create net in
  for c = 0 to Complete_cdg.num_channels cdg - 1 do
    let preds = Complete_cdg.pred cdg c in
    let slots = Complete_cdg.pred_slot cdg c in
    Array.iteri
      (fun i p ->
         Alcotest.(check int) "slot points back" c
           (Complete_cdg.succ cdg p).(slots.(i)))
      preds
  done

let cdg_use_channel_fresh_ids () =
  let net = Helpers.ring5 ~with_terminals:false () in
  let cdg = Complete_cdg.create net in
  let a = Complete_cdg.use_channel cdg 0 in
  let b = Complete_cdg.use_channel cdg 2 in
  Alcotest.(check bool) "distinct subgraphs" true (a <> b);
  Alcotest.(check int) "idempotent" a (Complete_cdg.use_channel cdg 0)

let cdg_edge_merging () =
  let net = Helpers.ring5 ~with_terminals:false () in
  let cdg = Complete_cdg.create net in
  (* Find a channel and one of its successors. *)
  let c = 0 in
  let q = (Complete_cdg.succ cdg c).(0) in
  ignore (Complete_cdg.use_channel cdg c);
  ignore (Complete_cdg.use_channel cdg q);
  let slot = Option.get (Complete_cdg.find_slot cdg ~from:c ~to_:q) in
  Alcotest.(check bool) "edge usable" true
    (Complete_cdg.try_use_edge cdg ~from:c ~slot);
  Alcotest.(check int) "subgraphs merged"
    (Complete_cdg.channel_omega cdg c)
    (Complete_cdg.channel_omega cdg q);
  Alcotest.(check int) "edge in same subgraph"
    (Complete_cdg.channel_omega cdg c)
    (Complete_cdg.edge_omega cdg ~from:c ~slot)

let cdg_blocks_ring_closure () =
  (* Use the whole clockwise ring of a 4-ring: the last edge that would
     close the channel cycle must be blocked. *)
  let net = Helpers.ring ~terminals:0 4 in
  let cdg = Complete_cdg.create net in
  let chan u v = Option.get (Network.find_channel net u v) in
  let ring = [ chan 0 1; chan 1 2; chan 2 3; chan 3 0 ] in
  let rec use = function
    | a :: (b :: _ as rest) ->
      let slot = Option.get (Complete_cdg.find_slot cdg ~from:a ~to_:b) in
      Alcotest.(check bool) "chain edge ok" true
        (Complete_cdg.try_use_edge cdg ~from:a ~slot);
      use rest
    | _ -> ()
  in
  use ring;
  (* Closing dependency (3->0) -> (0->1). *)
  let a = chan 3 0 and b = chan 0 1 in
  let slot = Option.get (Complete_cdg.find_slot cdg ~from:a ~to_:b) in
  Alcotest.(check bool) "closing edge refused" false
    (Complete_cdg.try_use_edge cdg ~from:a ~slot);
  Alcotest.(check int) "edge blocked" (-1)
    (Complete_cdg.edge_omega cdg ~from:a ~slot);
  Alcotest.(check bool) "used subgraph still acyclic" true
    (Complete_cdg.used_subgraph_acyclic cdg);
  Alcotest.(check bool) "at least one DFS ran" true
    (Complete_cdg.cycle_searches cdg >= 1)

let cdg_would_use_does_not_commit () =
  let net = Helpers.ring ~terminals:0 4 in
  let cdg = Complete_cdg.create net in
  let chan u v = Option.get (Network.find_channel net u v) in
  let a = chan 0 1 and b = chan 1 2 in
  let slot = Option.get (Complete_cdg.find_slot cdg ~from:a ~to_:b) in
  Alcotest.(check bool) "would be usable" true
    (Complete_cdg.would_use_edge cdg ~from:a ~slot);
  Alcotest.(check int) "but still unused" 0
    (Complete_cdg.edge_omega cdg ~from:a ~slot)

let cdg_random_usage_invariant () =
  (* Throw random edge-use requests at the CDG; the used subgraph must
     stay acyclic throughout (the Lemma 2 invariant). *)
  let net = Helpers.random_net ~switches:12 ~links:24 () in
  let cdg = Complete_cdg.create net in
  let p = Prng.create 31 in
  let nc = Complete_cdg.num_channels cdg in
  for _ = 1 to 500 do
    let c = Prng.int p nc in
    let succ = Complete_cdg.succ cdg c in
    if Array.length succ > 0 then begin
      let slot = Prng.int p (Array.length succ) in
      ignore (Complete_cdg.use_channel cdg c);
      ignore (Complete_cdg.try_use_edge cdg ~from:c ~slot)
    end
  done;
  Alcotest.(check bool) "used subgraph acyclic" true
    (Complete_cdg.used_subgraph_acyclic cdg)

let cdg_blocked_stays_blocked () =
  let net = Helpers.ring ~terminals:0 3 in
  let cdg = Complete_cdg.create net in
  let chan u v = Option.get (Network.find_channel net u v) in
  let use a b =
    let slot = Option.get (Complete_cdg.find_slot cdg ~from:a ~to_:b) in
    Complete_cdg.try_use_edge cdg ~from:a ~slot
  in
  Alcotest.(check bool) "01->12" true (use (chan 0 1) (chan 1 2));
  Alcotest.(check bool) "12->20" true (use (chan 1 2) (chan 2 0));
  Alcotest.(check bool) "closing blocked" false (use (chan 2 0) (chan 0 1));
  (* Re-asking gives the memoized answer without another DFS. *)
  let before = Complete_cdg.cycle_searches cdg in
  Alcotest.(check bool) "still blocked" false (use (chan 2 0) (chan 0 1));
  Alcotest.(check int) "no extra DFS" before (Complete_cdg.cycle_searches cdg)

(* Every blocked edge must genuinely close a cycle in the current used
   subgraph (blocking is permanent precisely because the used set only
   grows, so this must hold at any later point too). *)
let cdg_blocked_edges_justified () =
  let net = Helpers.random_net ~switches:10 ~links:20 () in
  let cdg = Complete_cdg.create net in
  let p = Prng.create 41 in
  let nc = Complete_cdg.num_channels cdg in
  for _ = 1 to 800 do
    let c = Prng.int p nc in
    let succ = Complete_cdg.succ cdg c in
    if Array.length succ > 0 then begin
      let slot = Prng.int p (Array.length succ) in
      ignore (Complete_cdg.use_channel cdg c);
      ignore (Complete_cdg.try_use_edge cdg ~from:c ~slot)
    end
  done;
  (* Rebuild the used graph in a plain digraph and re-judge every
     blocked edge. *)
  let g = Digraph.create nc in
  for c = 0 to nc - 1 do
    Array.iteri
      (fun slot q ->
         if Complete_cdg.edge_omega cdg ~from:c ~slot >= 1 then
           Digraph.add_edge g c q)
      (Complete_cdg.succ cdg c)
  done;
  let checked = ref 0 in
  for c = 0 to nc - 1 do
    Array.iteri
      (fun slot q ->
         if Complete_cdg.edge_omega cdg ~from:c ~slot = -1 then begin
           incr checked;
           Alcotest.(check bool) "blocked edge closes a cycle" true
             (Digraph.would_close_cycle g c q)
         end)
      (Complete_cdg.succ cdg c)
  done;
  Alcotest.(check bool) "some edges were blocked" true (!checked > 0)

(* Subgraph ids are consistent: both endpoints of a used edge share the
   edge's id. *)
let cdg_omega_consistency () =
  let net = Helpers.random_net ~switches:10 ~links:22 () in
  let cdg = Complete_cdg.create net in
  let p = Prng.create 43 in
  let nc = Complete_cdg.num_channels cdg in
  for _ = 1 to 600 do
    let c = Prng.int p nc in
    let succ = Complete_cdg.succ cdg c in
    if Array.length succ > 0 then begin
      ignore (Complete_cdg.use_channel cdg c);
      ignore (Complete_cdg.try_use_edge cdg ~from:c ~slot:(Prng.int p (Array.length succ)))
    end
  done;
  for c = 0 to nc - 1 do
    Array.iteri
      (fun slot q ->
         let om = Complete_cdg.edge_omega cdg ~from:c ~slot in
         if om >= 1 then begin
           Alcotest.(check int) "tail id" om (Complete_cdg.channel_omega cdg c);
           Alcotest.(check int) "head id" om (Complete_cdg.channel_omega cdg q)
         end)
      (Complete_cdg.succ cdg c)
  done

(* {2 Differential check of the bounded omega recheck}

   Reference: the unbounded used-edge DFS condition (d) used to run,
   rebuilt on the public [succ]/[edge_omega] API. An edge is usable iff
   it is not blocked and either already used or no used path leads from
   its head back to its tail. *)
let used_path cdg ~start ~target =
  let seen = Array.make (Complete_cdg.num_channels cdg) false in
  let stack = ref [ start ] and found = ref false in
  while (not !found) && !stack <> [] do
    match !stack with
    | [] -> ()
    | c :: rest ->
      stack := rest;
      if c = target then found := true
      else if not seen.(c) then begin
        seen.(c) <- true;
        Array.iteri
          (fun slot q ->
             if Complete_cdg.edge_omega cdg ~from:c ~slot >= 1 then
               stack := q :: !stack)
          (Complete_cdg.succ cdg c)
      end
  done;
  !found

let reference_usable cdg ~from ~slot =
  match Complete_cdg.edge_omega cdg ~from ~slot with
  | -1 -> false
  | 0 ->
    not
      (used_path cdg ~start:(Complete_cdg.succ cdg from).(slot) ~target:from)
  | _ -> true

(* [steps] seeded random operations on [cdg]; every verdict must equal
   the reference's answer taken before the call. Tallies the
   condition-(d) verdicts so callers can check both outcomes ran. *)
let differential_ops p cdg ~steps ~acyclic ~cycle =
  let nc = Complete_cdg.num_channels cdg in
  for step = 1 to steps do
    let c = Prng.int p nc in
    let succ = Complete_cdg.succ cdg c in
    let k = Prng.int p 10 in
    if k = 0 then ignore (Complete_cdg.use_channel cdg c)
    else if Array.length succ > 0 then begin
      let slot = Prng.int p (Array.length succ) in
      let expected = reference_usable cdg ~from:c ~slot in
      let got, what =
        if k <= 6 then begin
          let v = Complete_cdg.try_use_edge_v cdg ~from:c ~slot in
          (match v with
           | Complete_cdg.Search_acyclic -> incr acyclic
           | Complete_cdg.Search_cycle -> incr cycle
           | _ -> ());
          (Complete_cdg.verdict_ok v, "try_use_edge")
        end
        else (Complete_cdg.would_use_edge cdg ~from:c ~slot, "would_use_edge")
      in
      if got <> expected then
        Alcotest.failf "step %d: %s %d->%d says %b, reference %b" step what c
          (succ.(slot)) got expected
    end
  done

let check_used_state name cdg =
  Alcotest.(check bool) (name ^ ": used subgraph acyclic") true
    (Complete_cdg.used_subgraph_acyclic cdg);
  match Complete_cdg.used_digraph cdg with
  | (_ : Acyclic_digraph.t) -> ()
  | exception Invalid_argument msg -> Alcotest.failf "%s: %s" name msg

let edge_states cdg =
  List.concat
    (List.init (Complete_cdg.num_channels cdg) (fun c ->
         List.init
           (Array.length (Complete_cdg.succ cdg c))
           (fun slot -> compare (Complete_cdg.edge_omega cdg ~from:c ~slot) 0)))

let cdg_recheck_matches_reference () =
  let nets =
    [ ("random", Helpers.random_net ~switches:12 ~links:30 ());
      ("random-dense", Helpers.random_net ~seed:5 ~switches:8 ~links:24 ());
      ("torus",
       (Nue_netgraph.Topology.torus3d ~dims:(3, 3, 2) ~terminals_per_switch:1
          ()).Nue_netgraph.Topology.net) ]
  in
  List.iter
    (fun (name, net) ->
       let acyclic = ref 0 and cycle = ref 0 in
       for seed = 1 to 4 do
         let name = Printf.sprintf "%s seed %d" name seed in
         let p = Prng.create seed in
         let cdg = Complete_cdg.create net in
         differential_ops p cdg ~steps:300 ~acyclic ~cycle;
         (* Speculation: a clone with a journal replays onto an
            unchanged original exactly. *)
         let scratch = Complete_cdg.clone cdg in
         let j = Complete_cdg.journal_create () in
         Complete_cdg.set_journal scratch (Some j);
         differential_ops p scratch ~steps:200 ~acyclic ~cycle;
         Complete_cdg.set_journal scratch None;
         Alcotest.(check bool) (name ^ ": clean replay") true
           (Complete_cdg.replay cdg j);
         Alcotest.(check (list int)) (name ^ ": replay reproduces the clone")
           (edge_states scratch) (edge_states cdg);
         (* The scratch keeps its own order while the original moves
            on; a reset must carry the original's order over. *)
         differential_ops p scratch ~steps:100 ~acyclic ~cycle;
         differential_ops p cdg ~steps:200 ~acyclic ~cycle;
         Complete_cdg.copy_state_into ~src:cdg ~dst:scratch;
         Complete_cdg.journal_clear j;
         Complete_cdg.set_journal scratch (Some j);
         differential_ops p scratch ~steps:300 ~acyclic ~cycle;
         Complete_cdg.set_journal scratch None;
         (* A replay against moved-on state may fail, but what it
            admits must keep the order sound. *)
         differential_ops p cdg ~steps:100 ~acyclic ~cycle;
         ignore (Complete_cdg.replay cdg j : bool);
         differential_ops p cdg ~steps:300 ~acyclic ~cycle;
         check_used_state (name ^ " scratch") scratch;
         check_used_state name cdg
       done;
       Alcotest.(check bool) (name ^ ": admitted by search") true (!acyclic > 0);
       Alcotest.(check bool) (name ^ ": refused by search") true (!cycle > 0))
    nets

(* A condition-(d) admission the order already agrees with runs no
   discovery: it still counts as a recheck, but visits nothing. Only
   edges from lower to higher channel ids are used, so the initial
   identity order never needs a reorder. *)
let cdg_ordered_recheck_visits_nothing () =
  let net = Helpers.random_net ~switches:10 ~links:24 () in
  let cdg = Complete_cdg.create net in
  let p = Prng.create 77 in
  let nc = Complete_cdg.num_channels cdg in
  let skipped = ref [] in
  for c = 0 to nc - 1 do
    Array.iteri
      (fun slot q ->
         if q > c then
           if Prng.int p 2 = 0 then
             ignore (Complete_cdg.try_use_edge cdg ~from:c ~slot : bool)
           else skipped := (c, slot) :: !skipped)
      (Complete_cdg.succ cdg c)
  done;
  let from, slot =
    List.find
      (fun (c, slot) ->
         let q = (Complete_cdg.succ cdg c).(slot) in
         let om = Complete_cdg.channel_omega cdg c in
         om >= 1 && om = Complete_cdg.channel_omega cdg q)
      (List.rev !skipped)
  in
  let was_on = Obs.enabled () in
  Obs.enable ();
  Fun.protect
    ~finally:(fun () -> if not was_on then Obs.disable ())
    (fun () ->
       let peek name = Obs.peek (Obs.counter name) in
       let visited0 = peek "cdg.search_visited"
       and search0 = peek "cdg.memo.miss_search"
       and rechecks0 = Complete_cdg.cycle_searches cdg in
       Alcotest.(check string) "admitted by condition (d)" "search-acyclic"
         (Complete_cdg.verdict_to_string
            (Complete_cdg.try_use_edge_v cdg ~from ~slot));
       Alcotest.(check int) "no channel visited" 0
         (peek "cdg.search_visited" - visited0);
       Alcotest.(check int) "one miss_search" 1
         (peek "cdg.memo.miss_search" - search0);
       Alcotest.(check int) "one recheck" 1
         (Complete_cdg.cycle_searches cdg - rechecks0))

let suite =
  [ ("digraph",
     [ test_case "edges and multiplicity" `Quick digraph_edges;
       test_case "acyclic dag" `Quick digraph_acyclic_dag;
       test_case "finds cycle" `Quick digraph_finds_cycle;
       test_case "self loop" `Quick digraph_self_loop_cycle;
       test_case "would_close_cycle" `Quick digraph_would_close_cycle ]);
    ("acyclic_digraph",
     [ test_case "accepts dag" `Quick pk_accepts_dag;
       test_case "rejects cycle" `Quick pk_rejects_cycle;
       test_case "multiplicity and removal" `Quick pk_multiplicity_and_removal;
       test_case "agrees with offline check" `Quick pk_agrees_with_offline_check;
       test_case "order invariant under stress" `Quick pk_stress_order_invariant;
       test_case "reassign matches reference" `Quick
         pk_reassign_matches_reference ]);
    ("complete_cdg",
     [ test_case "Fig. 3 structure" `Quick cdg_fig3_structure;
       test_case "no u-turns" `Quick cdg_no_u_turns;
       test_case "pred slots" `Quick cdg_pred_slots;
       test_case "fresh subgraph ids" `Quick cdg_use_channel_fresh_ids;
       test_case "edge use merges subgraphs" `Quick cdg_edge_merging;
       test_case "ring closure blocked" `Quick cdg_blocks_ring_closure;
       test_case "would_use does not commit" `Quick cdg_would_use_does_not_commit;
       test_case "random usage keeps acyclicity" `Quick cdg_random_usage_invariant;
       test_case "blocked is memoized" `Quick cdg_blocked_stays_blocked;
       test_case "blocked edges justified" `Quick cdg_blocked_edges_justified;
       test_case "omega consistency" `Quick cdg_omega_consistency;
       test_case "recheck matches reference DFS" `Quick
         cdg_recheck_matches_reference;
       test_case "ordered recheck visits nothing" `Quick
         cdg_ordered_recheck_visits_nothing ]) ]

