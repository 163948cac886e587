(* Parallel-equivalence net: the proof that domain-parallel route
   computation is byte-identical to sequential.

   Three layers of evidence:

   - Every pinned engine x fixture digest from test_compact.ml is
     recomputed at --jobs 2 and --jobs 8 and checked against the same
     recordings the jobs=1 suite pins. Any schedule-dependence in the
     batched rounds, the freeze-round baselines, or the shard merges
     would show up here as a digest mismatch.

   - Merged observability must be deterministic too: Obs counter
     snapshots and provenance trails from a parallel run are compared
     structurally against a sequential run of the same seeded fixture.
     (Span traces are exempt by design — see span.mli — their
     timestamps are per-domain.)

   - A seeded stress loop routes randomized (topology, engine, dests,
     vcs) rounds at a worker count above the machine's and cross-checks
     fingerprints, table shape (no torn/duplicate/missing
     destinations) and Verify verdicts against jobs=1.

   Plus unit tests for the shard merge semantics themselves (counters
   sum whatever the split, drain/absorb, span events are absorbed). *)

module Network = Nue_netgraph.Network
module Topology = Nue_netgraph.Topology
module Prng = Nue_structures.Prng
module Engine = Nue_routing.Engine
module Engine_error = Nue_routing.Engine_error
module Verify = Nue_routing.Verify
module Table = Nue_routing.Table
module Experiment = Nue_pipeline.Experiment
module Pool = Nue_parallel.Pool
module Obs = Nue_obs.Obs
module Span = Nue_obs.Span
module Provenance = Nue_core.Provenance

let () = Nue_core.Nue_engine.ensure_registered ()

let with_jobs jobs f =
  let before = Pool.default_jobs () in
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs before) f

(* {1 Digest equivalence at jobs 2 and 8} *)

(* The fixtures and recordings are shared with test_compact.ml (the
   module has no interface on purpose); jobs=1 agreement is that
   suite's job. *)
(* The jobs=8 sweep is Slow-tagged: on a single-core runner its extra
   domain spawns roughly triple the quick suite's wall time, and the
   jobs=2 sweep already exercises every cross-domain code path. CI's
   full `dune runtest` (no ALCOTEST_QUICK_TESTS) still runs it. *)
let equivalence_case ?(speed = `Quick) jobs (name, build) =
  Alcotest.test_case
    (Printf.sprintf "digests at jobs=%d: %s" jobs name)
    speed
    (fun () ->
       with_jobs jobs @@ fun () ->
       let built = build () in
       List.iter
         (fun (engine, expected) ->
            match Engine.route engine (Experiment.spec ~vcs:8 built) with
            | Error e ->
              Alcotest.failf "%s/%s: %s" name engine (Engine_error.to_string e)
            | Ok table ->
              Alcotest.(check string)
                (Printf.sprintf "%s/%s jobs=%d" name engine jobs)
                expected
                (Helpers.table_fingerprint table))
         (List.assoc name Test_compact.recorded))

(* {1 Merged observability equals sequential} *)

let counters_at jobs built =
  with_jobs jobs @@ fun () ->
  let _, snap =
    Experiment.with_trace (fun () ->
        Experiment.run ~vcs:4 ~engine:"nue" built)
  in
  snap

let test_obs_counters_equal () =
  let built = Helpers.dense_random_built () in
  let seq = counters_at 1 built in
  List.iter
    (fun jobs ->
       let par = counters_at jobs built in
       List.iter2
         (fun (k, v) (k', v') ->
            Alcotest.(check string) "counter name" k k';
            Alcotest.(check int) (Printf.sprintf "jobs=%d %s" jobs k) v v')
         seq par)
    [ 2; 8 ]

let trails_at jobs built =
  with_jobs jobs @@ fun () ->
  let outcome, run = Provenance.with_recording (fun () ->
      Experiment.run ~vcs:4 ~engine:"nue" built)
  in
  (match outcome.Experiment.table with
   | Error e -> Alcotest.failf "nue: %s" (Engine_error.to_string e)
   | Ok _ -> ());
  match run with
  | None -> Alcotest.fail "no provenance run captured"
  | Some r -> r.Provenance.r_trails

let test_provenance_trails_equal () =
  let built = Helpers.random_built () in
  let seq = trails_at 1 built in
  List.iter
    (fun jobs ->
       let par = trails_at jobs built in
       Alcotest.(check int)
         (Printf.sprintf "jobs=%d trail count" jobs)
         (Array.length seq) (Array.length par);
       Array.iteri
         (fun i (t : Provenance.trail) ->
            let p = par.(i) in
            (* Structural equality over the whole decision trail: the
               committed trails must land in destination order with
               exactly the sequential steps. *)
            if t <> p then
              Alcotest.failf
                "jobs=%d trail %d (dest %d/%d) differs" jobs i
                t.Provenance.t_dest p.Provenance.t_dest)
         seq)
    [ 2; 8 ]

(* {1 Shard merge semantics} *)

let c_sum = Obs.counter "test.parallel.sum"

let with_obs f =
  let was = Obs.enabled () in
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:(fun () -> if not was then Obs.disable ()) f

let test_merge_sum () =
  with_obs @@ fun () ->
  Pool.run ~jobs:4 ~chunk:8 ~n:100 (fun i -> if i mod 2 = 0 then Obs.incr c_sum);
  Alcotest.(check int) "summed across shards" 50 (Obs.peek c_sum)

(* The merged total is a function of the work, not of the worker count
   or chunking that split it. *)
let test_merge_jobs_invariant () =
  List.iter
    (fun (jobs, chunk) ->
       with_obs @@ fun () ->
       Pool.run ~jobs ~chunk ~n:100 (fun i -> Obs.add c_sum i);
       Alcotest.(check int)
         (Printf.sprintf "jobs=%d chunk=%d" jobs chunk) 4950 (Obs.peek c_sum))
    [ (1, 100); (2, 7); (4, 1); (8, 13) ]

(* Draining hands the values over and zeroes the cells; absorbing adds
   them back, so a drain/absorb round trip is the identity. *)
let test_drain_absorb_round_trip () =
  with_obs @@ fun () ->
  Obs.add c_sum 5;
  let d = Obs.drain_shard () in
  Alcotest.(check int) "drain zeroes" 0 (Obs.peek c_sum);
  Obs.absorb_shard d;
  Alcotest.(check int) "absorb restores" 5 (Obs.peek c_sum);
  Obs.absorb_shard d;
  Alcotest.(check int) "absorb adds" 10 (Obs.peek c_sum)

let test_span_events_absorbed () =
  let was = Span.enabled () in
  Span.reset ();
  Span.enable ();
  Fun.protect ~finally:(fun () -> if not was then Span.disable ()) @@ fun () ->
  Pool.run ~jobs:4 ~chunk:2 ~n:16 (fun _ -> Span.with_ "test.parallel.span" (fun () -> ()));
  (* Worker events are re-stamped into the caller's buffer at join; the
     merged timeline must contain every span (order and timestamps are
     schedule-dependent by design). *)
  let names =
    List.filter (fun (e : Span.event) -> e.Span.name = "test.parallel.span")
      (Span.events ())
  in
  Alcotest.(check bool) "all spans merged" true (List.length names >= 16)

(* {1 Span merge structural invariants}

   Merged multi-domain span traces are re-stamped at join, so exact
   timestamps are schedule-dependent by design (span.mli). What *is*
   deterministic — because round boundaries and per-round work are pure
   functions of the seeded destination order — is the trace's
   structure: how many events, which (name, phase) pairs how often, and
   well-nestedness with a monotone timeline. Pin those against a
   sequential run of the same fixture. *)

let spans_at jobs built =
  with_jobs jobs @@ fun () ->
  let _, evs =
    Experiment.with_spans (fun () -> Experiment.run ~vcs:4 ~engine:"nue" built)
  in
  evs

let name_multiset evs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (e : Span.event) ->
       let key = (e.Span.name, e.Span.phase) in
       Hashtbl.replace tbl key
         (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
    evs;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let check_well_nested ctx evs =
  let stack = ref [] in
  let last = ref min_int in
  List.iter
    (fun (e : Span.event) ->
       if e.Span.ts < !last then
         Alcotest.failf "%s: timestamps regressed at %s" ctx e.Span.name;
       last := e.Span.ts;
       match e.Span.phase with
       | Span.Begin -> stack := e.Span.name :: !stack
       | Span.End ->
         (match !stack with
          | top :: rest when top = e.Span.name -> stack := rest
          | _ -> Alcotest.failf "%s: unbalanced End %s" ctx e.Span.name)
       | Span.Instant | Span.Counter -> ())
    evs;
  if !stack <> [] then Alcotest.failf "%s: spans left open" ctx

let test_span_merge_structure () =
  let built = Helpers.dense_random_built () in
  let seq = spans_at 1 built in
  check_well_nested "jobs=1" seq;
  List.iter
    (fun jobs ->
       let par = spans_at jobs built in
       let ctx = Printf.sprintf "jobs=%d" jobs in
       check_well_nested ctx par;
       Alcotest.(check int) (ctx ^ ": event count")
         (List.length seq) (List.length par);
       if name_multiset seq <> name_multiset par then
         Alcotest.failf "%s: span (name, phase) multiset differs from \
                         sequential" ctx)
    [ 2; 4 ]

(* {1 Exceptions propagate out of the pool} *)

let test_pool_exception () =
  Alcotest.check_raises "worker exception resurfaces" Exit (fun () ->
      Pool.run ~jobs:4 ~chunk:1 ~n:32 (fun i -> if i = 17 then raise Exit))

(* {1 Seeded stress rounds} *)

let stress_engines = [| "nue"; "dfsssp"; "minhop"; "lash"; "sssp" |]

(* recommended_domain_count is 1 on single-core CI runners; floor at 4
   so the schedule is genuinely interleaved everywhere. *)
let stress_jobs = max 4 (Domain.recommended_domain_count ())

let stress_fixture rng round =
  match Prng.int rng 5 with
  | 0 -> (Printf.sprintf "ring%d" (6 + (round mod 5)),
          Helpers.ring (6 + (round mod 5)), None)
  | 1 -> ("line7", Helpers.line 7, None)
  | 2 ->
    let seed = 100 + round in
    ("random14/" ^ string_of_int seed,
     Topology.random (Prng.create seed) ~switches:14 ~inter_switch_links:34
       ~terminals_per_switch:2 (),
     None)
  | 3 -> let t = Helpers.torus443 () in ("torus443", t.Topology.net, Some t)
  | _ -> ("hypercube4", Topology.hypercube ~dim:4 ~terminals_per_switch:2 (),
          None)

let stress_round rng round =
  (* Per-round stream split off the master seed: rounds stay
     reproducible individually even if the mix above changes. *)
  let rng = Prng.split rng in
  let name, net, torus = stress_fixture rng round in
  let engine = stress_engines.(Prng.int rng (Array.length stress_engines)) in
  let vcs = 2 + Prng.int rng 6 in
  let terms = Array.copy (Network.terminals net) in
  Prng.shuffle rng terms;
  let ndests = max 2 (Prng.int rng (Array.length terms)) in
  let dests = Array.sub terms 0 (min ndests (Array.length terms)) in
  Array.sort compare dests;
  let route jobs =
    with_jobs jobs @@ fun () ->
    Engine.route engine (Engine.spec ~vcs ~seed:round ~dests ?torus net)
  in
  let ctx = Printf.sprintf "round %d: %s/%s vcs=%d" round name engine vcs in
  match (route 1, route stress_jobs) with
  | Error e, Error e' ->
    (* Both reject (e.g. VC budget): the verdict must at least agree. *)
    Alcotest.(check string) (ctx ^ ": error kind stable")
      (Engine_error.kind e) (Engine_error.kind e')
  | Ok _, Error e | Error e, Ok _ ->
    Alcotest.failf "%s: verdict flipped across jobs: %s" ctx
      (Engine_error.to_string e)
  | Ok seq, Ok par ->
    (* No torn tables: exactly the requested destinations, once each,
       with a full next-hop row per destination. *)
    Alcotest.(check (array int)) (ctx ^ ": dests") dests par.Table.dests;
    Alcotest.(check int) (ctx ^ ": rows")
      (Array.length dests) (Array.length par.Table.next_channel);
    Array.iter
      (fun row ->
         Alcotest.(check int) (ctx ^ ": row width")
           (Network.num_nodes net) (Array.length row))
      par.Table.next_channel;
    Alcotest.(check string) (ctx ^ ": fingerprint")
      (Helpers.table_fingerprint seq) (Helpers.table_fingerprint par);
    let vs = Verify.check seq and vp = Verify.check par in
    Alcotest.(check bool) (ctx ^ ": connected stable")
      vs.Verify.connected vp.Verify.connected;
    Alcotest.(check bool) (ctx ^ ": deadlock-free stable")
      vs.Verify.deadlock_free vp.Verify.deadlock_free;
    Alcotest.(check int) (ctx ^ ": unreachable stable")
      vs.Verify.unreachable_pairs vp.Verify.unreachable_pairs

let test_stress_quick () =
  let rng = Prng.create 0xC0FFEE in
  for round = 1 to 6 do
    stress_round rng round
  done

let test_stress_slow () =
  let rng = Prng.create 0xD15C0 in
  for round = 1 to 50 do
    stress_round rng round
  done

let suite =
  [ ( "parallel",
      List.map (equivalence_case 2) Test_compact.fixtures
      @ List.map (equivalence_case ~speed:`Slow 8) Test_compact.fixtures
      @ [ Alcotest.test_case "obs counters equal sequential" `Quick
            test_obs_counters_equal;
          Alcotest.test_case "provenance trails equal sequential" `Quick
            test_provenance_trails_equal;
          Alcotest.test_case "merge: counters sum" `Quick test_merge_sum;
          Alcotest.test_case "merge: sum independent of jobs" `Quick
            test_merge_jobs_invariant;
          Alcotest.test_case "merge: drain/absorb round trip" `Quick
            test_drain_absorb_round_trip;
          Alcotest.test_case "merge: spans absorbed" `Quick
            test_span_events_absorbed;
          Alcotest.test_case "merge: span structure matches sequential" `Quick
            test_span_merge_structure;
          Alcotest.test_case "pool propagates exceptions" `Quick
            test_pool_exception;
          Alcotest.test_case "stress: 6 seeded rounds" `Quick
            test_stress_quick;
          Alcotest.test_case "stress: 50 seeded rounds" `Slow
            test_stress_slow ] ) ]
