(** Nestable, deterministic span tracer (the timeline side of the
    observability layer).

    Spans are begin/end pairs with payload key-values, stamped by a
    {e deterministic} integer clock: by default an internal tick counter
    that advances once per recorded event, optionally an external
    counter such as the simulator's cycle count ({!set_clock}). No wall
    clock is ever read, so two identical seeded runs produce
    byte-identical traces — the property the trace-export tests pin
    down.

    Like {!Obs}, capture is {e off by default}: while disabled,
    {!enter}/{!exit}/{!instant} are a single flag test with no
    allocation, and {!with_} is a plain call of its thunk.

    The buffer serializes to Chrome trace-event JSON
    ({!to_chrome_string}) loadable in Perfetto ([ui.perfetto.dev]) or
    [chrome://tracing], and to a compact text flamegraph
    ({!flamegraph}). *)

(** Payload values attached to span begin/end and instant events. *)
type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type phase = Begin | End | Instant | Counter

type event = {
  name : string;
  phase : phase;
  ts : int;  (** deterministic stamp: tick or external counter value *)
  args : (string * arg) list;
}

type handle
(** Token returned by {!enter}; required by {!exit}. The handle of the
    disabled path is inert: exiting it is a no-op. *)

val null_handle : handle

(** {1 Enabling} *)

val enabled : unit -> bool
(** Capture state; [false] at startup. Independent of [Obs]'s flag. *)

val enable : unit -> unit

val disable : unit -> unit

val debug : unit -> bool
(** Debug mode; [false] at startup. While set, unbalanced span exits
    ({!exit}) raise [Invalid_argument]; otherwise they saturate (see
    {!exit}). *)

val set_debug : bool -> unit

(** {1 Clock} *)

val set_clock : (unit -> int) -> unit
(** Install an external integer clock (e.g. the simulator's cycle
    counter). Events recorded while it is installed carry its value and
    do not advance the internal tick. *)

val use_tick_clock : unit -> unit
(** Return to the internal tick counter (the default), jumping it past
    the largest stamp already emitted so the timeline stays monotonic. *)

val now : unit -> int
(** The stamp the next event would carry (does not advance the tick). *)

(** {1 Recording} *)

val enter : ?args:(string * arg) list -> string -> handle
(** Open a span. Disabled: returns {!null_handle} without allocating. *)

val exit : ?args:(string * arg) list -> handle -> unit
(** Close the span opened by {!enter}. Unbalanced use (double exit, or
    exiting over still-open children) raises [Invalid_argument] when
    {!debug} is set and saturates otherwise: double exits are
    dropped, open children are closed first. Either way the buffer stays
    well-nested. *)

val with_ : ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** [with_ name f] brackets [f] in a span. Exceptions propagate; the
    closing event is annotated with the exception text. Disabled: a
    plain call of [f]. *)

val instant : ?args:(string * arg) list -> string -> unit
(** A zero-duration annotation (escape fallback, backtrack, deadlock). *)

val counter : string -> (string * arg) list -> unit
(** A counter sample: Perfetto renders one time series per key. *)

(** {1 Buffer} *)

val reset : unit -> unit
(** Drop all events, zero the tick, restore the tick clock and empty the
    nesting stack. Does not change the enabled flag. *)

val events : unit -> event list
(** Recorded events, oldest first. *)

val num_events : unit -> int

val dropped : unit -> int
(** Events discarded because the buffer hit {!set_capacity}'s cap. *)

val set_capacity : int -> unit
(** Cap the event buffer (default 262144). Stack bookkeeping continues
    past the cap, so nesting stays consistent; overflow is counted in
    {!dropped}. *)

val current_depth : unit -> int
(** Number of currently open spans. *)

(** {1 Scope hooks}

    A single optional global pair of callbacks fired on every span open
    and close while capture is enabled — the seam the resource
    profiler ({!Profile}) plugs into. Hooks observe exactly the scopes
    the buffer records, including the forced child closes of a
    saturating {!exit}, so a hook maintaining its own stack stays in
    lockstep. [None] (the default, restored by {!Profile.disable})
    costs one atomic load per scope. *)

type scope_hooks = {
  on_scope_enter : string -> unit;
  on_scope_exit : string -> unit;
}

val set_scope_hooks : scope_hooks option -> unit

(** {1 Shard transfer}

    Recording state (buffer, tick clock, nesting stack) is per-domain:
    spans opened on a pool worker land in that worker's buffer. At pool
    join, [Nue_parallel.Pool] drains each worker's buffer on the worker
    and absorbs it on the spawning domain in worker-index order. Each
    worker's events arrive as one contiguous well-nested block,
    re-stamped with fresh local ticks so the merged timeline stays
    monotonic. Span {e content} is deterministic per seeded run; the
    per-worker grouping (hence exact stamp values) depends on the job
    count, which is why byte-identity claims cover tables, counters and
    provenance trails but not multi-domain span traces. *)

type drained
(** A drained, immutable copy of one domain's event buffer. *)

val drain_events : unit -> drained
(** Take (and clear) the calling domain's buffer and dropped count. *)

val absorb_events : drained -> unit
(** Append a drained buffer to the calling domain's buffer with fresh
    local stamps, preserving order; dropped counts accumulate. *)

(** {1 Export} *)

val to_chrome_string : unit -> string
(** The whole buffer as Chrome trace-event JSON:
    [{"traceEvents": [...], "displayTimeUnit": ..., "otherData": ...}].
    Directly loadable in Perfetto / [chrome://tracing]. Timestamps are
    the deterministic integer stamps (declared as microseconds, the
    unit the format mandates). *)

val flamegraph : ?width:int -> unit -> string
(** Inclusive tick totals aggregated by span-name stack path, one line
    per path, children indented under parents, sorted by total
    descending (deterministic). *)
