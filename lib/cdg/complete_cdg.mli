(** Complete channel dependency graph with routing state
    (paper Definition 6 and the omega bookkeeping of Section 4.6.1).

    Vertices are the channels of the network; there is an edge
    (c_p, c_q) whenever c_q continues where c_p ends without returning
    to c_p's source node. Each vertex and edge carries the state of the
    incrementally built induced CDG:

    - omega = -1: the edge is {e blocked} — using it would close a cycle
      (vertices are never blocked);
    - omega = 0: {e unused};
    - omega >= 1: {e used}, and the value identifies the vertex-disjoint
      acyclic used subgraph the element belongs to.

    [try_use_edge] implements Algorithm 3: the four conditions (a)-(d),
    with a search only in case (d). Subgraph ids live in a union-find
    forest (union by size, so the surviving id matches the historical
    smaller-into-larger relabeling); stored omegas may be stale aliases,
    and every read canonicalizes through [channel_omega]/[edge_omega].
    All mutations keep the used subgraph acyclic — this is the invariant
    Nue's deadlock-freedom proof (Lemma 2) rests on.

    {b Order invariant.} Since all used edges together are acyclic, the
    graph keeps one Pearce-Kelly topological order [ord] over all
    channels (Pearce & Kelly, JEA 2006; the technique of
    {!Acyclic_digraph}): every used edge p -> q has
    [ord p < ord q]. Unused channels sit anywhere in it. The (d) recheck
    of [from -> q] uses it in two ways:
    - [ord from < ord q]: no used path q ~> from can exist, so the edge
      is admitted with no search;
    - otherwise a forward discovery from q visits only channels with
      [ord <= ord from]; reaching [from] means a cycle.
    A committed (c) or (d) admission against the order reorders the
    forward set and the backward discovery from [from] (channels with
    [ord >= ord q]) among their own slots. A channel unused before the
    admission is its own discovery set. Reachability alone decides a
    verdict, so the order never changes one. Clones, [copy_state_into]
    and [replay] carry or maintain it; its discovery buffers are
    allocated once per graph, so a recheck allocates nothing. *)

type t

val create : Nue_netgraph.Network.t -> t
(** Build the complete CDG of a network; everything starts unused. *)

val clone : t -> t
(** A scratch copy for speculative routing: shares the immutable
    structure (successor/predecessor arrays, the network) and copies
    only the mutable routing state. Mutating the clone never touches
    the original. The clone's journal starts unset. *)

val copy_state_into : src:t -> dst:t -> unit
(** Overwrite [dst]'s mutable routing state (edge and channel states,
    subgraph ids, the topological order) with [src]'s — resetting a
    scratch clone to the authoritative graph between speculations
    without re-allocating. Both must stem from the same network.
    @raise Invalid_argument if the channel counts differ. *)

val network : t -> Nue_netgraph.Network.t

val num_channels : t -> int

val num_edges : t -> int
(** |Ē|: number of channel-dependency edges. *)

(** {1 Structure} *)

val succ : t -> int -> int array
(** Successor channels of a channel (the channels its packets can be
    forwarded to next). Do not mutate. *)

val pred : t -> int -> int array
(** Predecessor channels. Do not mutate. *)

val pred_slot : t -> int -> int array
(** [pred_slot t c] aligns with [pred t c]: entry [i] is the slot [j]
    such that [succ t (pred t c).(i)).(j) = c], i.e. the location of the
    edge's state. Do not mutate. *)

val find_slot : t -> from:int -> to_:int -> int option
(** Slot of the edge [from -> to_] in [succ t from], if present. *)

(** {1 State} *)

val channel_omega : t -> int -> int
(** 0 if the channel is unused, otherwise its subgraph id (>= 1). *)

val edge_omega : t -> from:int -> slot:int -> int
(** -1 blocked, 0 unused, >= 1 used (subgraph id). *)

val use_channel : t -> int -> int
(** Mark a channel used; returns its subgraph id (a fresh one if it was
    unused). *)

val try_use_edge : t -> from:int -> slot:int -> bool
(** Algorithm 3 on edge [from -> succ.(from).(slot)]. Returns [true] and
    marks the edge (and both endpoint channels) used if this keeps the
    used subgraph acyclic; returns [false] and marks the edge blocked
    otherwise. Blocked edges stay blocked: the used subgraph only grows,
    so a once-detected cycle never disappears. *)

(** Which of Section 4.6.1's conditions decided a [try_use_edge] call —
    the provenance layer records this per rejected (and accepted)
    alternative so [nue_route explain] can say {e why} an edge was
    blocked. *)
type verdict =
  | Blocked_memo    (** (a): memoized blocked — a past search proved the
                        edge closes a cycle *)
  | Used_memo       (** (b): already used, hence already known acyclic *)
  | Distinct_merge  (** (c): endpoints in distinct (or fresh) acyclic
                        subgraphs — merged without a search *)
  | Search_acyclic  (** (d): same subgraph, no used path back (the
                        order agrees, or the bounded search found none) *)
  | Search_cycle    (** (d): same subgraph, the bounded search found a
                        used path back — blocked *)

val verdict_ok : verdict -> bool
(** Whether the verdict admits the edge ([try_use_edge]'s boolean). *)

val verdict_condition : verdict -> char
(** The Section 4.6.1 condition label: ['a'] to ['d']. *)

val verdict_to_string : verdict -> string

val try_use_edge_v : t -> from:int -> slot:int -> verdict
(** [try_use_edge] returning the deciding condition instead of a bare
    boolean; identical state mutations and counter increments. *)

val would_use_edge : t -> from:int -> slot:int -> bool
(** Like [try_use_edge] but without committing: [true] iff the edge is
    usable right now. Does not block the edge on failure and never
    reorders. *)

(** {1 Speculative journaling}

    Parallel Nue routes each destination of a batch against a scratch
    {!clone} while recording the state-changing operations — fresh
    channel uses, edge admissions, edge blocks — into a journal, then
    {!replay}s the journals onto the authoritative graph one
    destination at a time in batch order. Admissions re-run Algorithm 3
    on the real graph, so a speculation invalidated by an earlier
    commit is detected (replay returns [false]) and the caller
    re-routes that destination sequentially; blocks are always sound to
    replay because a used subgraph only grows, so a cycle found against
    the scratch persists in the real graph. The commit order — not the
    domain schedule — therefore decides the final CDG state, which is
    what keeps seeded runs byte-identical at any job count. *)

type journal

val journal_create : unit -> journal

val journal_clear : journal -> unit
(** Forget the recorded ops (capacity is kept). *)

val journal_length : journal -> int
(** Number of recorded ops. *)

val set_journal : t -> journal option -> unit
(** Attach (or detach) the journal that [use_channel]/[try_use_edge]
    record their state changes into. Recording costs one branch per
    state-changing call when unset. *)

val replay : t -> journal -> bool
(** Apply a journal recorded against a scratch clone to this graph.
    Returns [false] if an admission no longer holds (or a blocked edge
    is found used); the prefix already applied stays applied —
    conservative but sound, see [try_use_edge]. Do not attach a journal
    to the graph being replayed into. *)

(** {1 Inspection (tests, metrics)} *)

val used_subgraph_acyclic : t -> bool
(** Global recheck that the used edges form an acyclic graph; O(|C|+|Ē|).
    Intended for tests — the incremental invariant makes it always true. *)

val count_states : t -> used:int ref -> blocked:int ref -> unused:int ref -> unit
(** Tally edge states. *)

val cycle_searches : t -> int
(** Number of condition-(d) rechecks so far (Section 4.6.1), whether the
    order answered them or a bounded search ran — instruments how
    effective the omega memoization is. *)

val used_digraph : t -> Acyclic_digraph.t
(** The used subgraph re-checked into an {!Acyclic_digraph} (vertices are
    channel ids). Its Pearce-Kelly topological order is what
    [nue_route inspect --dot-acyclic] renders.
    @raise Invalid_argument if the used edges contain a cycle (the
    incremental invariant makes this impossible). *)

val to_dot :
  ?highlight_path:int list ->
  ?escape:bool array ->
  t ->
  string
(** Graphviz rendering of the complete CDG with its current state:
    channels as boxes (filled while used, double-bordered when flagged
    in [escape] — pass the escape tree's channel membership), dependency
    edges gray/dotted while unused, blue with their subgraph id while
    used, red/dashed once blocked. [highlight_path] overlays one pair's
    channel sequence (and the dependency edges between consecutive
    hops) in orange. *)
