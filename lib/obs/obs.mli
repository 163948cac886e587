(** Dependency-free counter registry (the observability layer's tallies).

    Every hot layer of the system (CDG construction, the constrained
    Dijkstra, the Fibonacci heap, the engines, the flit simulator)
    registers named monotonic counters here at module initialization.
    Counting is {e off by default}: while disabled, {!incr}/{!add} are a
    single flag test — no allocation — so the counters can live inside
    inner loops without a measurable cost. Wall time is not kept here:
    it belongs to the spans of {!Span} (and {!Profile}, which rides on
    them), and per-engine route time is [Experiment.outcome.seconds].

    Registration (name → handle) is global and process-wide, matching
    how the paper's quantities (omega-memoization effectiveness, heap op
    counts, CDG searches, escape fallbacks) are reported: as totals over
    a run. The {e values}, however, are sharded per domain: every domain
    owns a private set of cells (reached through domain-local storage),
    so concurrent increments from a domain pool never race. A worker
    drains its shard when its work ends ({!drain_shard}) and the
    spawning domain folds it in ({!absorb_shard}); [Nue_parallel.Pool]
    does this in worker-index order, making merged totals a function of
    the work performed, not of the schedule. On a single domain nothing
    changes: {!snapshot}/{!reset}/{!peek} act on the calling domain's
    shard, and drivers that want per-phase numbers bracket the phase
    with {!reset} and {!snapshot}. *)

type counter
(** A named monotonic counter. Registration is idempotent: two
    [counter "x"] calls return the same cell. *)

(** {1 Enabling} *)

val enabled : unit -> bool
(** Counting state; [false] at startup. *)

val enable : unit -> unit

val disable : unit -> unit

(** {1 Counters} *)

val counter : string -> counter
(** Register (or look up) the counter with this name. *)

val incr : counter -> unit
(** Add 1 when enabled; a single flag test when disabled. Never
    allocates. *)

val add : counter -> int -> unit
(** Add [n] when enabled. Never allocates. *)

val peek : counter -> int
(** Current value (regardless of the enabled flag). *)

(** {1 Snapshots} *)

type snapshot = (string * int) list
(** Counter values, sorted by name. *)

val snapshot : unit -> snapshot
(** Current value of every registered counter, sorted by name — the
    order is a function of the names only, never of registration or
    mutation order. *)

val reset : unit -> unit
(** Zero every counter cell of the calling domain's shard
    (registrations are kept). *)

val find : snapshot -> string -> int
(** Counter value in a snapshot; 0 when absent. *)

(** {1 Shard transfer}

    The merge half of the per-domain sharding: a worker domain calls
    {!drain_shard} after its tasks finish, hands the result to the
    spawning domain, and the spawner calls {!absorb_shard}, which adds
    the drained values to its own. *)

type shard
(** A drained, immutable copy of one domain's cells. *)

val drain_shard : unit -> shard
(** Copy the calling domain's cells and zero them. *)

val absorb_shard : shard -> unit
(** Add a drained shard into the calling domain's cells. *)
