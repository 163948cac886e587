(* Pipeline benchmark: one seeded workload per process, run through the
   public entry points build -> route -> verify -> simulate -> reroute,
   with every output checked.

   A run sets the workload up several times, then repeats the workload's
   operation for --seconds: route + verify, one simulation, or one pass
   over a fault-event stream. With --trace 0 it prints the end-to-end
   metrics. With --trace 1 it does the same work twice, the second time
   under the benchmark's own spans (one around each call into a layer),
   then makes standalone calls into single layers, and prints the
   per-layer metrics. The program's own recorders stay off throughout.

   The last line of standard output is one JSON object with the keys
   "correct", "attempted", "failed" and "metrics". perfbench/run.py
   builds this program and runs it; perfbench/README.md describes the
   workloads and what each metric means. *)

module Experiment = Nue_pipeline.Experiment
module Engine = Nue_routing.Engine
module Engine_error = Nue_routing.Engine_error
module Verify = Nue_routing.Verify
module Table = Nue_routing.Table
module Network = Nue_netgraph.Network
module Prng = Nue_structures.Prng
module Pool = Nue_parallel.Pool
module Fwd = Nue_metrics.Forwarding_index
module Pathstats = Nue_metrics.Pathstats
module Complete_cdg = Nue_cdg.Complete_cdg
module Nue = Nue_core.Nue
module Partition = Nue_core.Partition
module Rootsel = Nue_core.Rootsel
module Escape = Nue_core.Escape
module Nue_dijkstra = Nue_core.Nue_dijkstra
module Sim = Nue_sim.Sim
module Traffic = Nue_sim.Traffic
module Reconfig = Nue_reconfig.Reconfig
module Event = Nue_reconfig.Event
module Transition = Nue_reconfig.Transition

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Words allocated by the calling domain so far: minor allocations plus
   direct major allocations, promotions not counted twice. Emptying the
   minor heap first settles the promotion count, so a single-domain call
   allocates the same count on every run; without it the count moved by
   a few percent between runs. *)
let words () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Linear interpolation between order statistics. *)
let quantile q = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i >= Array.length a - 1 then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* {1 The benchmark's own spans} *)

module Trace = struct
  type span = {
    name : string;
    layer : string;
    parent : int;  (* index of the enclosing span; -1 for a root *)
    start : float;
    mutable stop : float;
  }

  let on = ref false
  let buf = ref [||]
  let len = ref 0
  let open_spans = ref []

  let with_ ~layer name f =
    if not !on then f ()
    else begin
      let id = !len in
      let parent = match !open_spans with p :: _ -> p | [] -> -1 in
      let s = { name; layer; parent; start = now (); stop = nan } in
      if id = Array.length !buf then begin
        let bigger = Array.make (max 256 (2 * id)) s in
        Array.blit !buf 0 bigger 0 id;
        buf := bigger
      end;
      !buf.(id) <- s;
      len := id + 1;
      open_spans := id :: !open_spans;
      Fun.protect f ~finally:(fun () ->
          s.stop <- now ();
          open_spans := List.tl !open_spans)
    end

  let spans () = Array.sub !buf 0 !len
  let duration s = s.stop -. s.start

  (* A span's self time is its duration minus the part its children
     cover. Children nest strictly (one caller, no overlap), so the self
     times of a root's subtree add up to the root's duration. *)
  let self_times spans =
    let self = Array.map duration spans in
    Array.iter
      (fun s ->
         if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. duration s)
      spans;
    self

  let durations spans name =
    Array.fold_right
      (fun s acc -> if s.name = name then duration s :: acc else acc)
      spans []

  let to_json spans =
    let t0 = if Array.length spans = 0 then 0.0 else spans.(0).start in
    let b = Buffer.create 4096 in
    Buffer.add_string b "[\n";
    Array.iteri
      (fun i s ->
         Printf.bprintf b
           "%s{\"id\":%d,\"name\":%S,\"layer\":%S,\"parent\":%d,\
            \"start_s\":%.9f,\"end_s\":%.9f}\n"
           (if i = 0 then "" else ",")
           i s.name s.layer s.parent (s.start -. t0) (s.stop -. t0))
      spans;
    Buffer.add_string b "]\n";
    Buffer.contents b
end

let layers =
  [ "netgraph"; "routing"; "metrics"; "simulator"; "reconfig"; "bench" ]

(* {1 The correctness gate}

   Every checked operation counts as attempted; a wrong output counts as
   failed and fails the run. *)

let attempted = ref 0
let failures = ref []

let gate ok what =
  incr attempted;
  if not ok then failures := what :: !failures

exception Abort of string

let table_ok (r : Verify.report) =
  r.Verify.connected && r.Verify.cycle_free && r.Verify.deadlock_free
  && r.Verify.unreachable_pairs = 0

let same_table (a : Table.t) (b : Table.t) =
  a.Table.dests = b.Table.dests
  && a.Table.next_channel = b.Table.next_channel
  && (match (a.Table.vl, b.Table.vl) with
      | Table.Per_hop _, _ | _, Table.Per_hop _ -> false
      | va, vb -> va = vb)

let sim_ok (o : Sim.outcome) =
  o.Sim.delivered_packets = o.Sim.total_packets
  && o.Sim.dropped_packets = 0 && not o.Sim.deadlock

(* The simulated statistics that must repeat exactly. *)
let sim_signature (o : Sim.outcome) =
  ( o.Sim.cycles, o.Sim.delivered_bytes, o.Sim.latency_p50, o.Sim.latency_p99,
    o.Sim.latency_max, o.Sim.avg_packet_latency )

(* The first result of every repeated computation; later repetitions
   must reproduce it exactly. *)
let first_table : Table.t option ref = ref None
let first_sim : Sim.outcome option ref = ref None
let first_traffic = ref None

let same_as_first cell v eq =
  match !cell with
  | None -> cell := Some v; true
  | Some f -> eq f v

(* {1 Workloads} *)

type kind =
  | Route
  | Simulate of { traffic : Traffic.spec; injection_rate : float }
  | Churn of { events : int }

type workload = {
  dims : int * int * int;
  terminals : int;
  kind : kind;
  setups : int;  (* set-ups per phase; fixed, so the heap peak repeats *)
}

let vcs = 4
let message_bytes = 2048

let workload_names =
  [ "route-torus8"; "sim-a2a"; "sim-lowload"; "churn-torus4" ]

(* [tiny] shrinks every fabric for the self-test. *)
let workload ~tiny name =
  let pick full small = if tiny then small else full in
  match name with
  | "route-torus8" ->
    { dims = pick (8, 8, 8) (3, 3, 3); terminals = 1; kind = Route;
      setups = 25 }
  | "sim-a2a" ->
    { dims = pick (4, 4, 4) (3, 3, 2); terminals = pick 2 1; setups = 5;
      kind = Simulate { traffic = Traffic.All_to_all_shift;
                        injection_rate = 1.0 } }
  | "sim-lowload" ->
    { dims = pick (5, 5, 5) (3, 3, 2); terminals = pick 2 1; setups = 5;
      kind = Simulate
          { traffic = Traffic.Uniform { messages_per_terminal = pick 8 2 };
            injection_rate = 0.05 } }
  | "churn-torus4" ->
    { dims = pick (4, 4, 4) (3, 3, 2); terminals = 1; setups = 10;
      kind = Churn { events = pick 100 10 } }
  | other ->
    invalid_arg
      (Printf.sprintf "unknown workload %S (expected one of: %s)" other
         (String.concat ", " workload_names))

(* The workload seed generates the inputs only: the traffic (stream
   [seed + 2], as {!Experiment.sweep} derives it) and the fault events
   (stream [seed + 3]). The tori have no random part. Nue's tie-break
   seed is program configuration and stays fixed: its tables differ a
   lot from one tie-break seed to the next (on the 8x8x8 torus the
   maximum forwarding index ranged from 1429 to 8906 over seeds 1-7),
   which would swamp the effect of any code change. *)
let engine_seed = 1
let traffic_prng seed = Prng.create (seed + 2)
let events_prng seed = Prng.create (seed + 3)
let nue_options = { Nue.default_options with Nue.seed = engine_seed }

(* {1 Calls into the layers, each under a span} *)

let build w =
  Trace.with_ ~layer:"netgraph" "netgraph.build" (fun () ->
      Experiment.build
        (Experiment.setup ~seed:engine_seed
           (Experiment.Torus3d
              { dims = w.dims; terminals = w.terminals; redundancy = 1 })))

let verify table =
  Trace.with_ ~layer:"routing" "routing.verify" (fun () -> Verify.check table)

(* [Engine.route] then [Verify.check]: the table (if the engine returned
   one) and what was wrong with it, if anything. *)
let route_verified ~engine spec =
  match
    Trace.with_ ~layer:"routing" "routing.route" (fun () ->
        Engine.route engine spec)
  with
  | Error e -> (None, Some ("Engine.route: " ^ Engine_error.to_string e))
  | Ok table ->
    if table_ok (verify table) then (Some table, None)
    else (Some table, Some "table failed Verify.check")

(* Flits times channels crossed, summed over the traffic: the work a
   simulation does, known before it runs. *)
let flit_hops table (config : Sim.config) traffic =
  let flits b = (b + config.Sim.flit_bytes - 1) / config.Sim.flit_bytes in
  List.fold_left
    (fun acc { Traffic.src; dst; bytes } ->
       let per_mtu = flits config.Sim.mtu_bytes in
       let n =
         (bytes / config.Sim.mtu_bytes * per_mtu)
         + flits (bytes mod config.Sim.mtu_bytes)
       in
       match Table.hop_count table ~src ~dest:dst with
       | Some hops -> acc + (n * hops)
       | None -> acc)
    0 traffic

(* {1 Set-up: everything before the timed operation} *)

type input =
  | Route_in of { spec : Engine.spec; dests : int }
  | Sim_in of { table : Table.t; traffic : Traffic.message list;
                config : Sim.config; flit_hops : int }
  | Churn_in of { state : Reconfig.state; events : Event.t list }

type setup = { net : Network.t; input : input }

let setup w ~engine ~seed =
  let built = build w in
  let net = built.Experiment.net in
  match w.kind with
  | Route ->
    { net;
      input = Route_in { spec = Experiment.spec ~vcs built;
                         dests = Array.length (Network.terminals net) } }
  | Simulate { traffic; injection_rate } ->
    let table =
      match route_verified ~engine (Experiment.spec ~vcs built) with
      | Some t, None -> t
      | _, Some e -> raise (Abort ("set-up: " ^ e))
      | None, None -> assert false
    in
    gate (same_as_first first_table table same_table)
      "set-up: table differs from the first set-up";
    let traffic =
      Trace.with_ ~layer:"simulator" "simulator.traffic" (fun () ->
          Traffic.generate (traffic_prng seed) traffic net ~message_bytes)
    in
    gate (same_as_first first_traffic traffic ( = ))
      "set-up: traffic differs from the first set-up";
    let config = { Sim.default_config with Sim.injection_rate } in
    { net;
      input =
        Sim_in { table; traffic; config;
                 flit_hops = flit_hops table config traffic } }
  | Churn { events } ->
    let state =
      match
        Trace.with_ ~layer:"reconfig" "reconfig.init" (fun () ->
            Reconfig.init ~engine ~vcs ~seed:engine_seed net)
      with
      | Error e -> raise (Abort ("Reconfig.init: " ^ e))
      | Ok st -> st
    in
    gate
      (table_ok (verify state.Reconfig.table)
       && same_as_first first_table state.Reconfig.table same_table)
      "set-up: initial table failed Verify.check or differs";
    let events =
      Trace.with_ ~layer:"reconfig" "reconfig.events" (fun () ->
          Event.random_churn (events_prng seed) net ~events)
    in
    { net; input = Churn_in { state; events } }

(* {1 The timed operation} *)

(* The first pass over the event stream: the state before each event and
   the step it produced. *)
type pass = { before : Reconfig.state array; steps : Reconfig.step array }

let first_pass : pass option ref = ref None

let same_step (a : Reconfig.step) (b : Reconfig.step) =
  a.Reconfig.kind = b.Reconfig.kind
  && a.Reconfig.affected = b.Reconfig.affected
  && (match (a.Reconfig.verdict, b.Reconfig.verdict) with
      | Transition.Safe, Transition.Safe -> true
      | Transition.Unsafe x, Transition.Unsafe y ->
        x.cycle = y.cycle && x.drain = y.drain
      | _ -> false)
  && same_table a.Reconfig.table b.Reconfig.table

(* One pass over the event stream; every [Reconfig.apply] is a latency
   sample. The first pass verifies every new table, later passes must
   repeat it exactly. Returns the pass's events per second. *)
let churn_pass state events ~samples =
  let events = Array.of_list events in
  let reference = !first_pass in
  let before = ref [] and steps = ref [] in
  let st = ref state in
  let busy = ref 0.0 in
  let i = ref 0 in
  while !i < Array.length events do
    let r, dt =
      timed (fun () ->
          Trace.with_ ~layer:"reconfig" "reconfig.apply" (fun () ->
              Reconfig.apply !st events.(!i)))
    in
    samples := dt :: !samples;
    busy := !busy +. dt;
    (match r with
     | Error e ->
       gate false
         (Printf.sprintf "Reconfig.apply (event %d, %s): %s" !i
            (Event.to_string events.(!i)) e);
       i := Array.length events
     | Ok (st', step) ->
       let ok =
         match reference with
         | Some r -> same_step r.steps.(!i) step
         | None -> table_ok (verify step.Reconfig.table)
       in
       gate ok
         (Printf.sprintf
            "Reconfig.apply (event %d): table failed Verify.check or \
             differs from the first pass" !i);
       if reference = None then begin
         before := !st :: !before;
         steps := step :: !steps
       end;
       st := st';
       incr i)
  done;
  if reference = None then
    first_pass :=
      Some { before = Array.of_list (List.rev !before);
             steps = Array.of_list (List.rev !steps) };
  ratio (float_of_int (Array.length events)) !busy

(* Runs the operation once, adds its latency sample(s) to [samples] and
   returns its work per second: destinations routed (route), flit-hops
   (sim) or events handled (churn). *)
let operation s ~engine ~samples =
  match s.input with
  | Route_in { spec; dests } ->
    let (table, err), dt = timed (fun () -> route_verified ~engine spec) in
    samples := dt :: !samples;
    let same =
      match table with
      | Some t -> same_as_first first_table t same_table
      | None -> false
    in
    gate (err = None && same)
      ("route: "
       ^ Option.value err ~default:"table differs from the first repetition");
    ratio (float_of_int dests) dt
  | Sim_in { table; traffic; config; flit_hops } ->
    let o, dt =
      timed (fun () ->
          Trace.with_ ~layer:"simulator" "simulator.run" (fun () ->
              Sim.run ~config table ~traffic))
    in
    samples := dt :: !samples;
    gate
      (sim_ok o
       && same_as_first first_sim o (fun a b ->
           sim_signature a = sim_signature b))
      (Printf.sprintf
         "Sim.run: %d/%d packets delivered, %d dropped, deadlock=%b, or \
          statistics differ from the first repetition"
         o.Sim.delivered_packets o.Sim.total_packets o.Sim.dropped_packets
         o.Sim.deadlock);
    ratio (float_of_int flit_hops) dt
  | Churn_in { state; events } -> churn_pass state events ~samples

(* {1 A phase: set up, repeat the operation, summarize the tables} *)

type phase = {
  setup_s : float list;
  op_s : float list;   (* latency samples *)
  rates : float list;  (* work per second, one per operation *)
  ops : int;
  last : setup;
  fwd_index_max : float;
  path_hops_mean : float;
  wall_s : float;
}

(* The forwarding index of the table the workload routes before or in
   its operation, and the mean path length of the table it ends with:
   the routed table (route), the set-up's table (sim), the initial table
   and the one after the last event (churn). *)
let table_stats last =
  let routed, final =
    match (last.input, !first_table, !first_pass) with
    | Sim_in { table; _ }, _, _ -> (table, table)
    | Churn_in { state; _ }, _, Some p when Array.length p.steps > 0 ->
      (state.Reconfig.table,
       p.steps.(Array.length p.steps - 1).Reconfig.table)
    | Churn_in { state; _ }, _, _ -> (state.Reconfig.table, state.Reconfig.table)
    | Route_in _, Some t, _ -> (t, t)
    | Route_in _, None, _ -> raise (Abort "no table was routed")
  in
  let fwd =
    Trace.with_ ~layer:"metrics" "metrics.forwarding_index" (fun () ->
        Fwd.summarize routed)
  in
  let paths =
    Trace.with_ ~layer:"metrics" "metrics.pathstats" (fun () ->
        Pathstats.compute final)
  in
  gate (paths.Pathstats.unreachable = 0) "final table leaves pairs unreachable";
  (fwd.Fwd.max, paths.Pathstats.avg_hops)

(* Repeat the operation until [seconds] have passed (at least once), or
   exactly [count] times. *)
let run_phase w ~engine ~seed ~seconds ?count () =
  let t0 = now () in
  let setups =
    List.init w.setups (fun _ -> timed (fun () -> setup w ~engine ~seed))
  in
  let last = fst (List.nth setups (w.setups - 1)) in
  let samples = ref [] and rates = ref [] and ops = ref 0 in
  let start = now () in
  let more () =
    match count with
    | Some c -> !ops < c
    | None -> !ops = 0 || now () -. start < seconds
  in
  while more () do
    rates := operation last ~engine ~samples :: !rates;
    incr ops
  done;
  let fwd_index_max, path_hops_mean = table_stats last in
  { setup_s = List.map snd setups; op_s = !samples; rates = !rates;
    ops = !ops; last; fwd_index_max; path_hops_mean; wall_s = now () -. t0 }

let end_to_end p =
  [ ("setup_s", median p.setup_s);
    ("op_p50_s", median p.op_s);
    ("op_p90_s", quantile 0.9 p.op_s);
    ("work_per_s", median p.rates);
    ("peak_heap_mw", float_of_int (Gc.quick_stat ()).Gc.top_heap_words /. 1e6);
    ("fwd_index_max", p.fwd_index_max);
    ("path_hops_mean", p.path_hops_mean) ]

(* {1 Standalone calls into single layers (traced runs only)} *)

(* Nue's steps on this fabric with Nue's inputs, at one domain so that
   word counts repeat exactly. Returns the metrics and the one-domain
   route time. *)
let core_probe net ~width =
  Pool.set_default_jobs 1;
  let dests = Network.terminals net in
  let prng = Prng.create engine_seed in
  let subsets, partition_s =
    timed (fun () ->
        Partition.partition ~strategy:nue_options.Nue.strategy ~prng net ~dests
          ~k:vcs)
  in
  (* As Nue does: shuffle each layer, skip empty ones. *)
  Array.iter (fun s -> Prng.shuffle prng s) subsets;
  let subsets =
    Array.of_list
      (List.filter (fun s -> Array.length s > 0) (Array.to_list subsets))
  in
  let roots, rootsel_s =
    timed (fun () -> Array.map (fun s -> Rootsel.choose net ~dests:s) subsets)
  in
  let creates =
    Array.map
      (fun _ ->
         let w0 = words () in
         let cdg, dt = timed (fun () -> Complete_cdg.create net) in
         (cdg, dt, words () -. w0))
      subsets
  in
  let escapes, escape_s =
    timed (fun () ->
        Array.mapi
          (fun i s ->
             let cdg, _, _ = creates.(i) in
             Escape.prepare cdg ~root:roots.(i) ~dests:s)
          subsets)
  in
  (* The constrained Dijkstra for every destination of the first layer,
     without Nue's weight updates and commits. *)
  let cdg0, _, _ = creates.(0) in
  let weights = Array.make (Network.num_channels net) 1.0 in
  let stats = Nue_dijkstra.fresh_stats () in
  let w0 = words () in
  let (), dijkstra_s =
    timed (fun () ->
        Array.iter
          (fun dest ->
             ignore
               (Nue_dijkstra.route_destination cdg0 ~escape:escapes.(0)
                  ~weights ~dest ~stats ()))
          subsets.(0))
  in
  let dijkstra_words = words () -. w0 in
  let layer0 = float_of_int (Array.length subsets.(0)) in
  let w0 = words () in
  let (table, st), nue_s =
    timed (fun () -> Nue.route_with_stats ~options:nue_options ~vcs net)
  in
  let nue_words = words () -. w0 in
  let w0 = words () in
  let report = Verify.check table in
  let verify_words = words () -. w0 in
  gate (table_ok report) "core probe: Nue table failed Verify.check";
  Pool.set_default_jobs width;
  let ndests = float_of_int (Array.length dests) in
  let creates = Array.to_list creates in
  ( [ ("cdg.create_s", median (List.map (fun (_, t, _) -> t) creates));
      ("cdg.create_mw", median (List.map (fun (_, _, w) -> w) creates) /. 1e6);
      ("core.partition_s", partition_s);
      ("core.rootsel_s", rootsel_s);
      ("core.escape_prepare_s", escape_s);
      ("core.dijkstra_us_per_dest", ratio dijkstra_s layer0 *. 1e6);
      ("core.dijkstra_words_per_dest", ratio dijkstra_words layer0);
      ("core.nue_route_s", nue_s);
      ("core.nue_words_per_dest", ratio nue_words ndests);
      ("core.nue_cycle_searches", float_of_int st.Nue.cycle_searches);
      ("core.nue_misspeculations", float_of_int st.Nue.misspeculations);
      ("core.nue_misspec_ratio",
       ratio (float_of_int st.Nue.misspeculations) ndests);
      ("core.nue_fallbacks", float_of_int st.Nue.fallbacks);
      ("core.nue_backtracks", float_of_int st.Nue.backtracks);
      ("routing.verify_words", verify_words) ],
    nue_s )

(* The simulator on the workload's table and traffic: flit-hops from
   telemetry, allocation per flit-hop, idle buffers, and what the
   telemetry sink costs. [run_s] is the traced runs' median. *)
let sim_probe table ~traffic ~config ~flit_hops:expected ~run_s =
  let w0 = words () in
  let o, plain_s = timed (fun () -> Sim.run ~config table ~traffic) in
  let run_words = words () -. w0 in
  let telemetry =
    { Sim.sample_every = 64; max_samples = (o.Sim.cycles / 64) + 2;
      latency_bins = 32 }
  in
  let (o2, tel), tel_s =
    timed (fun () -> Sim.run_with_telemetry ~config ~telemetry table ~traffic)
  in
  gate (sim_ok o && sim_signature o = sim_signature o2)
    "simulator probe: incomplete run, or telemetry changed the outcome";
  let transmits = Array.fold_left ( + ) 0 tel.Sim.link_transmits in
  gate (transmits = expected)
    (Printf.sprintf "simulator probe: %d flit-hops transmitted, %d expected"
       transmits expected);
  let flit_hops = float_of_int transmits in
  let idle = ref 0 and sampled = ref 0 in
  Array.iter
    (fun s ->
       Array.iter
         (fun occ ->
            incr sampled;
            if occ = 0 then incr idle)
         s.Sim.link_occupancy)
    tel.Sim.samples;
  let cycles = float_of_int o.Sim.cycles in
  [ ("simulator.run_s", run_s);
    ("simulator.cycles", cycles);
    ("simulator.latency_p50_cycles", o.Sim.latency_p50);
    ("simulator.latency_p99_cycles", o.Sim.latency_p99);
    ("simulator.flit_hops", flit_hops);
    ("simulator.words_per_flit_hop", ratio run_words flit_hops);
    ("simulator.ns_per_cycle", ratio run_s cycles *. 1e9);
    ("simulator.flit_hops_per_cycle", ratio flit_hops cycles);
    ("simulator.idle_unit_share",
     ratio (float_of_int !idle) (float_of_int !sampled));
    ("simulator.telemetry_overhead", ratio tel_s plain_s) ]

(* Standalone [Reconfig.affected_dests] and [Transition.verify] for every
   event of the first pass, and the planner's decisions in it. *)
let reconfig_probe (p : pass) events =
  let evs = Array.of_list events in
  let n = Array.length p.steps in
  let affected_s =
    List.init n (fun i ->
        snd (timed (fun () -> Reconfig.affected_dests p.before.(i) evs.(i))))
  in
  let transition_s =
    List.init n (fun i ->
        snd
          (timed (fun () ->
               Transition.verify ~old_table:p.before.(i).Reconfig.table
                 ~new_table:p.steps.(i).Reconfig.table)))
  in
  let steps = Array.to_list p.steps in
  let share f =
    ratio (float_of_int (List.length (List.filter f steps))) (float_of_int n)
  in
  [ ("reconfig.affected_dests_s", median affected_s);
    ("reconfig.transition_verify_s", median transition_s);
    ("reconfig.incremental_ratio",
     share (fun s -> s.Reconfig.kind = Reconfig.Incremental));
    (* full reroutes below the threshold (0.5): failed incremental tries *)
    ("reconfig.fallback_ratio",
     share (fun s ->
         s.Reconfig.kind = Reconfig.Full && s.Reconfig.affected_fraction <= 0.5));
    ("reconfig.affected_fraction_mean",
     ratio
       (List.fold_left (fun a s -> a +. s.Reconfig.affected_fraction) 0.0 steps)
       (float_of_int n));
    ("reconfig.staged_ratio",
     share (fun s ->
         match s.Reconfig.verdict with
         | Transition.Unsafe _ -> true
         | Transition.Safe -> false)) ]

(* The untraced and the traced phase each get half of [seconds]. *)
let per_layer w ~engine ~seed ~seconds ~width ~spans_out =
  let seconds = seconds /. 2.0 in
  let untraced = run_phase w ~engine ~seed ~seconds () in
  Trace.on := true;
  let traced =
    Trace.with_ ~layer:"bench" "bench.run" (fun () ->
        run_phase w ~engine ~seed ~seconds ~count:untraced.ops ())
  in
  Trace.on := false;
  let spans = Trace.spans () in
  if spans_out <> "" then
    Out_channel.with_open_text spans_out (fun oc ->
        output_string oc (Trace.to_json spans));
  let self = Trace.self_times spans in
  let layer_self l =
    let sum = ref 0.0 in
    Array.iteri
      (fun i s -> if s.Trace.layer = l then sum := !sum +. self.(i))
      spans;
    !sum
  in
  let span_median name = median (Trace.durations spans name) in
  let total = Trace.duration spans.(0) in
  let net = traced.last.net in
  let core, nue1_s = core_probe net ~width in
  let route_s =
    match Trace.durations spans "routing.route" with
    | [] ->
      (* Reconfig.init routes without going through Engine.route. *)
      snd (timed (fun () -> Nue.route ~options:nue_options ~vcs net))
    | ds -> median ds
  in
  let sim =
    match traced.last.input with
    | Sim_in { table; traffic; config; flit_hops } ->
      ("simulator.traffic_s", span_median "simulator.traffic")
      :: sim_probe table ~traffic ~config ~flit_hops
        ~run_s:(span_median "simulator.run")
    | Route_in _ | Churn_in _ -> []
  in
  let reconfig =
    match (traced.last.input, !first_pass) with
    | Churn_in { events; _ }, Some p ->
      ("reconfig.init_s", span_median "reconfig.init")
      :: reconfig_probe p events
    | _ -> []
  in
  [ ("netgraph.build_s", span_median "netgraph.build");
    ("routing.route_s", route_s);
    ("routing.verify_s", span_median "routing.verify");
    ("parallel.jobs", float_of_int width);
    ("parallel.route_speedup", ratio nue1_s route_s);
    ("metrics.table_stats_s",
     span_median "metrics.forwarding_index" +. span_median "metrics.pathstats") ]
  @ core @ sim @ reconfig
  @ List.map (fun l -> ("self." ^ l ^ "_s", layer_self l)) layers
  @ [ ("trace.total_s", total);
      ("trace.untraced_s", untraced.wall_s);
      ("trace.overhead_share", ratio total untraced.wall_s -. 1.0);
      ("trace.spans", float_of_int (Array.length spans)) ]

(* {1 Output} *)

(* Every metric with its unit, in output order. A per-layer metric of a
   layer the workload does not exercise prints as 0. *)
let end_to_end_units =
  [ ("setup_s", "s"); ("op_p50_s", "s"); ("op_p90_s", "s");
    ("work_per_s", "1/s"); ("peak_heap_mw", "MW"); ("fwd_index_max", "count");
    ("path_hops_mean", "hops") ]

let per_layer_units =
  [ ("netgraph.build_s", "s"); ("routing.route_s", "s");
    ("routing.verify_s", "s"); ("routing.verify_words", "words");
    ("parallel.jobs", "count"); ("parallel.route_speedup", "ratio");
    ("metrics.table_stats_s", "s");
    ("cdg.create_s", "s"); ("cdg.create_mw", "MW");
    ("core.partition_s", "s"); ("core.rootsel_s", "s");
    ("core.escape_prepare_s", "s"); ("core.dijkstra_us_per_dest", "us");
    ("core.dijkstra_words_per_dest", "words"); ("core.nue_route_s", "s");
    ("core.nue_words_per_dest", "words"); ("core.nue_cycle_searches", "count");
    ("core.nue_misspeculations", "count"); ("core.nue_misspec_ratio", "ratio");
    ("core.nue_fallbacks", "count"); ("core.nue_backtracks", "count");
    ("simulator.traffic_s", "s"); ("simulator.run_s", "s");
    ("simulator.cycles", "count"); ("simulator.latency_p50_cycles", "cycles");
    ("simulator.latency_p99_cycles", "cycles");
    ("simulator.flit_hops", "count"); ("simulator.words_per_flit_hop", "words");
    ("simulator.ns_per_cycle", "ns"); ("simulator.flit_hops_per_cycle", "count");
    ("simulator.idle_unit_share", "ratio");
    ("simulator.telemetry_overhead", "ratio");
    ("reconfig.init_s", "s"); ("reconfig.affected_dests_s", "s");
    ("reconfig.transition_verify_s", "s");
    ("reconfig.incremental_ratio", "ratio");
    ("reconfig.fallback_ratio", "ratio");
    ("reconfig.affected_fraction_mean", "ratio");
    ("reconfig.staged_ratio", "ratio") ]
  @ List.map (fun l -> ("self." ^ l ^ "_s", "s")) layers
  @ [ ("trace.total_s", "s"); ("trace.untraced_s", "s");
      ("trace.overhead_share", "ratio"); ("trace.spans", "count") ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result units values =
  let failed = List.length !failures in
  let body =
    if failed > 0 then ""
    else
      String.concat ", "
        (List.map
           (fun (name, unit) ->
              let v = Option.value (List.assoc_opt name values) ~default:0.0 in
              Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
                (json_number (if Float.is_finite v then v else 0.0))
                unit)
           units)
  in
  List.iter (fun f -> Printf.printf "# FAILED: %s\n" f) (List.rev !failures);
  Printf.printf "# error_rate=%s (%d failed of %d attempted)\n"
    (json_number (ratio (float_of_int failed) (float_of_int !attempted)))
    failed !attempted;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) (max 1 !attempted) failed body

let () =
  let workload_name = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and tiny = ref false in
  let nproc = ref (Domain.recommended_domain_count ()) in
  let engine = ref "nue" and commit = ref "unknown" and spans_out = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload_name,
       "NAME " ^ String.concat "|" workload_names);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long the operation repeats");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--nproc", Arg.Set_int nproc, "N online cores, for the record");
      ("--commit", Arg.Set_string commit, "ID source revision, for the record");
      ("--spans-out", Arg.Set_string spans_out,
       "FILE where a traced run writes its spans");
      ("--engine", Arg.Set_string engine, "NAME routing engine (default nue)");
      ("--tiny", Arg.Set tiny, " small fabrics, for the self-test") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    try workload ~tiny:!tiny !workload_name
    with Invalid_argument m -> prerr_endline m; exit 2
  in
  Nue_obs.Obs.disable ();
  Nue_obs.Span.disable ();
  Nue_obs.Profile.disable ();
  Nue_core.Provenance.disable ();
  let width = max 1 (min 2 !nproc) in
  Pool.set_default_jobs width;
  Printf.printf
    "# env nproc=%d recommended_domain_count=%d jobs=%d oversubscribed=%b \
     ocaml=%s commit=%s\n"
    !nproc (Domain.recommended_domain_count ()) width (width > !nproc)
    Sys.ocaml_version !commit;
  Printf.printf "# workload=%s seed=%d seconds=%g trace=%d engine=%s%s\n%!"
    !workload_name !seed !seconds !trace !engine
    (if !tiny then " tiny" else "");
  let units, values =
    try
      if !trace = 0 then begin
        let p = run_phase w ~engine:!engine ~seed:!seed ~seconds:!seconds () in
        Printf.printf
          "# ops=%d latency samples=%d min=%g median=%g max=%g setups=%d\n"
          p.ops (List.length p.op_s) (quantile 0.0 p.op_s) (median p.op_s)
          (quantile 1.0 p.op_s) (List.length p.setup_s);
        (end_to_end_units, end_to_end p)
      end
      else
        ( per_layer_units,
          per_layer w ~engine:!engine ~seed:!seed ~seconds:!seconds ~width
            ~spans_out:!spans_out )
    with Abort m ->
      gate false m;
      ([], [])
  in
  print_result units values;
  exit (if !failures = [] then 0 else 1)
