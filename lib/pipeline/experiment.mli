(** The shared experiment pipeline: topology construction, fault
    injection, engine routing, verification and metrics as one reusable
    stage list.

    Every driver (the [nue_route] CLI, the bench figure harnesses, the
    examples) used to hand-wire its own
    topology -> fault -> route -> verify -> metrics sequence; this module
    is the single implementation. Build a {!setup}, {!build} it (the
    deterministic PRNG streams for random topologies and fault injection
    are derived from [setup.seed] here and nowhere else, so CLI and bench
    can no longer drift), then {!run} any registered engine over it.

    Linking this module also guarantees the engine registry is complete:
    it forces [Nue_core.Nue_engine]'s registration of Nue alongside the
    baselines registered by [Nue_routing.Engine] itself. *)

module Engine = Nue_routing.Engine

(** {1 Topology description} *)

type prebuilt = {
  pnet : Nue_netgraph.Network.t;
  ptorus : Nue_netgraph.Topology.torus option;
  ptree : (int * int) option;
}

type topology =
  | Torus3d of { dims : int * int * int; terminals : int; redundancy : int }
  | Mesh of { dims : int array; terminals : int }
  | Torus_nd of { dims : int array; terminals : int }
  | Hypercube of { dim : int; terminals : int }
  | Fully_connected of { switches : int; terminals : int }
  | Random of { switches : int; links : int; terminals : int }
  | Kary_ntree of { k : int; n : int; terminals : int }
  | Dragonfly of { a : int; p : int; h : int; g : int }
  | Kautz of { degree : int; diameter : int; terminals : int;
               redundancy : int }
  | Cascade
  | Tsubame25
  | From_file of string
  | Prebuilt of prebuilt
      (** escape hatch for hand-built networks (examples, sweeps) that
          still want unified fault injection, routing and metrics *)

val prebuilt :
  ?torus:Nue_netgraph.Topology.torus ->
  ?tree:int * int ->
  Nue_netgraph.Network.t ->
  topology

(** {1 Fault plan} *)

type faults =
  | No_faults
  | Kill_switches of int list  (** fail these switches (and their terminals) *)
  | Cut_links of (int * int) list  (** fail one duplex link per pair *)
  | Link_failures of float
      (** fail this fraction of inter-switch links, chosen by the
          deterministic stream derived from [setup.seed] *)

type setup = { topology : topology; faults : faults; seed : int }

val setup : ?faults:faults -> ?seed:int -> topology -> setup
(** [faults] defaults to [No_faults], [seed] to 1. *)

(** {1 Building} *)

type built = {
  base : Nue_netgraph.Network.t;  (** the intact network *)
  net : Nue_netgraph.Network.t;   (** the degraded network ([= base] when
                                      no faults were injected) *)
  remap : Nue_netgraph.Fault.remap;  (** base -> net node mapping *)
  torus : Nue_netgraph.Topology.torus option;
  tree : (int * int) option;
  seed : int;
}

val build : setup -> built
(** Construct the network and inject the faults. Topology generation
    uses PRNG stream [seed]; fault selection uses stream [seed + 1] —
    the same derivation for every driver.
    @raise Invalid_argument if the fault plan disconnects the network
    (propagated from {!Nue_netgraph.Fault}). *)

val spec :
  ?vcs:int ->
  ?dests:int array ->
  ?sources:int array ->
  built ->
  Engine.spec
(** The routing spec for this built network: carries the degraded
    network plus the torus/tree metadata and the setup seed. [vcs]
    defaults to 8. *)

(** {1 Running engines} *)

type metrics = {
  verify : Nue_routing.Verify.report;
  vls_used : int;
  forwarding : Nue_metrics.Forwarding_index.summary;
  paths : Nue_metrics.Pathstats.t;
  throughput : Nue_metrics.Throughput_model.t;
}

type outcome = {
  engine : string;
  vcs : int;
  seconds : float;  (** wall-clock of the routing computation alone *)
  table : (Nue_routing.Table.t, Nue_routing.Engine_error.t) result;
  metrics : metrics option;  (** [Some] iff [table] is [Ok] *)
}

val measure : Nue_routing.Table.t -> metrics

val run :
  ?vcs:int ->
  ?dests:int array ->
  ?sources:int array ->
  ?jobs:int ->
  engine:string ->
  built ->
  outcome
(** Route with the named engine and compute the full metrics record.
    Unknown engines and engine failures land in [outcome.table]'s
    [Error] — never an exception. [jobs] sets the domain-pool width for
    this run (see {!Nue_parallel.Pool.set_default_jobs}); the routed
    table is byte-identical for every value. Omitted, the pool default
    (the [NUE_JOBS] environment variable, else 1) applies. *)

val run_all : ?vcs:int -> ?jobs:int -> built -> outcome list
(** {!run} every registered engine (registry order). *)

val time : (unit -> 'a) -> 'a * float
(** Wall-clock a computation (shared by the bench drivers). *)

val simulate :
  ?config:Nue_sim.Sim.config ->
  message_bytes:int ->
  Nue_routing.Table.t ->
  Nue_sim.Sim.outcome
(** Flit-level all-to-all-shift simulation of a routed table (the
    optional last pipeline stage). *)

val simulate_with_telemetry :
  ?config:Nue_sim.Sim.config ->
  ?telemetry:Nue_sim.Sim.telemetry_config ->
  message_bytes:int ->
  Nue_routing.Table.t ->
  Nue_sim.Sim.outcome * Nue_sim.Sim.telemetry
(** {!simulate} with the simulator's telemetry sink attached: per-link
    and per-VL occupancy time series, link utilization, latency
    histogram, and deadlock attribution. *)

(** {1 Saturation sweeps} *)

type sweep_point = {
  offered_load : float;    (** injection rate this point ran at *)
  accepted_load : float;   (** delivered flits per cycle per terminal *)
  point_sim : Nue_sim.Sim.outcome;
  point_telemetry : Nue_sim.Sim.telemetry;
}

type knee = {
  knee_load : float;       (** first offered load past saturation *)
  knee_reason : string;
      (** ["throughput_plateau"], ["latency_blowup"] or ["deadlock"] *)
}

type sweep = {
  sweep_workload : string;
  sweep_engine : string;
  sweep_message_bytes : int;
  points : sweep_point list;      (** one per load, ascending *)
  sweep_knee : knee option;       (** [None] when the curve never bends *)
  congestion : Nue_sim.Congestion.report;
      (** attributed at the highest load point *)
  heat : float array;             (** per-duplex-pair heat at the highest
                                      load, for {!Nue_netgraph.Serialize.to_dot} *)
}

val default_sweep_loads : float list
(** [0.2; 0.4; 0.6; 0.8; 1.0]. *)

val default_sweep_telemetry : Nue_sim.Sim.telemetry_config
(** Denser than the simulator default (sample every 16 cycles, 512
    samples) so congestion windows resolve short runs. *)

val sweep :
  ?vcs:int ->
  ?jobs:int ->
  ?config:Nue_sim.Sim.config ->
  ?telemetry:Nue_sim.Sim.telemetry_config ->
  ?loads:float list ->
  ?message_bytes:int ->
  ?workload:Nue_sim.Traffic.spec ->
  ?top_k:int ->
  engine:string ->
  built ->
  (sweep, Nue_routing.Engine_error.t) result
(** Route with the named engine, generate the workload from PRNG stream
    [seed + 2] (extending {!build}'s derivation: topology [seed], faults
    [seed + 1]), then simulate it at each offered load by scaling the
    simulator's injection rate, with telemetry attached. Returns the
    saturation curve, the detected {!knee}, and the congestion
    attribution at the highest load. Deterministic: two sweeps from the
    same setup render byte-identical {!sweep_to_json}. [message_bytes]
    defaults to 256, [workload] to [Uniform], [loads] to
    {!default_sweep_loads}.
    @raise Invalid_argument if [loads] is empty, not strictly ascending,
    or has a value outside (0, 1]. *)

(** {1 JSON rendering (for [--format json] and scripting)} *)

val verify_to_json : Nue_routing.Verify.report -> Json.t
val metrics_to_json : metrics -> Json.t
val network_to_json : Nue_netgraph.Network.t -> Json.t
val error_to_json : Nue_routing.Engine_error.t -> Json.t

val outcome_to_json : outcome -> Json.t
(** Engine name, applicability, timing, the verify report, the
    algorithm's [run_stats]-style counters ([Table.info]) and the
    path/VL/throughput metrics. *)

val sim_to_json : Nue_sim.Sim.outcome -> Json.t

val congestion_to_json : Nue_sim.Congestion.report -> Json.t
(** Hotspot list (channel, VL, mean/peak occupancy, utilization and the
    crossing flows) plus the windowed occupancy series. *)

val sweep_to_json : sweep -> Json.t
(** Workload, engine, the per-point curve (offered vs accepted load and
    latency percentiles), the knee and the congestion report. Contains
    no wall-clock values, so same-seed sweeps render byte-identically. *)

val telemetry_to_json : Nue_sim.Sim.telemetry -> Json.t
(** Sampling cadence and occupancy series (compact: total buffered
    flits, peak per-link occupancy and the per-VL breakdown per
    sample), link-utilization summary (peak, the channel achieving it,
    mean), latency percentiles from the histogram, and the attributed
    deadlock wait cycle (empty list when the run completed). *)

(** {1 Provenance (the [explain]/[inspect] layer)} *)

val explanation_to_json :
  Nue_routing.Table.t -> Nue_core.Provenance.explanation -> Json.t
(** The [nue_route explain --format json] rendering: pair metadata
    (layer, escape root, partition strategy, seed, VCs, fallback and
    backtrack counts) plus one object per hop with the admitted
    dependency check and the rejected alternatives (including which
    omega condition fired and the deduplicated retry count). *)

(** {1 Tracing (the observability layer)}

    Linking the pipeline installs [Unix.gettimeofday] as
    {!Nue_obs.Profile}'s clock, so profiles report wall time. *)

val with_trace : (unit -> 'a) -> 'a * Nue_obs.Obs.snapshot
(** Run a thunk with counting enabled (resetting all counters first)
    and return its result together with the final snapshot. Restores
    the previous enabled/disabled state afterwards, also on
    exception. *)

val with_spans : (unit -> 'a) -> 'a * Nue_obs.Span.event list
(** Run a thunk with the span tracer reset and enabled and return its
    result together with the recorded events (render them with
    {!Nue_obs.Span.to_chrome_string} / {!Nue_obs.Span.flamegraph}
    before the next reset). Restores the tracer's previous
    enabled/disabled state; the event buffer is left intact so callers
    can serialize it. On exception the tracer state is still restored. *)

val with_profile : (unit -> 'a) -> 'a * Nue_obs.Profile.report
(** Run a thunk with the resource profiler enabled over a fresh window
    and return its result together with the {!Nue_obs.Profile.report}:
    per-span GC/alloc attribution, pool utilization regions,
    speculation outcomes, and the measured Amdahl serial fraction. The
    span tracer is reset and enabled too (alloc attribution rides on
    its scope hooks); both enabled flags are restored afterwards, also
    on exception. Profiling never changes routing results — the
    profiler only reads [Gc.quick_stat] and the clock. *)

val profile_to_json : Nue_obs.Profile.report -> Json.t
(** Render a profile report:
    [{"wall_seconds", "serial_seconds", "parallel_busy_seconds",
      "serial_fraction", "utilization", "amdahl_max_speedup",
      "speculation": {...}, "pool_regions": [...], "phases": [...]}],
    where [phases] is the alloc tree (per node: calls,
    seconds/self_seconds, minor/major/promoted words with self
    variants, collection counts, children). *)

val trace_to_json : Nue_obs.Obs.snapshot -> Json.t
(** Render a snapshot as [{"counters": ..., "derived": ...}]. The derived section reports the paper's headline
    instrumentation quantities — omega-memoization hit rate
    (Section 4.6.1), CDG search/accept rates, total heap ops and
    cascading-cut rate, and the Pearce-Kelly reorder rate. Keys are
    sorted by name, so output is stable under registration order. *)
