(** Incrementally maintained acyclic digraph (Pearce-Kelly dynamic
    topological order).

    [try_add_edge] either inserts an edge, keeping the graph acyclic and
    updating the topological order locally, or reports that the edge
    would close a cycle and leaves the graph untouched. This is the
    workhorse of the LASH layer assignment, where every candidate path
    must be tested against a layer's dependency graph and rolled back
    cheaply on failure (edge removal never invalidates a topological
    order). *)

type t

val create : int -> t
(** [create n]: vertices [0 .. n-1], no edges. *)

val try_add_edge : t -> int -> int -> bool
(** [try_add_edge g u v] adds [u -> v] (incrementing multiplicity) and
    returns [true], unless the edge would create a cycle, in which case
    the graph is unchanged and the result is [false]. Self-loops are
    rejected. *)

val remove_edge : t -> int -> int -> unit
(** Decrement multiplicity; removes the edge at zero.
    @raise Invalid_argument if absent. *)

val mem_edge : t -> int -> int -> bool

val multiplicity : t -> int -> int -> int

val num_edges : t -> int
(** Distinct edges currently present. *)

val order : t -> int -> int
(** Current topological index of a vertex (all indices distinct;
    edges always point from lower to higher index). *)

(** {1 The reorder step}

    Shared with {!Complete_cdg}'s order over used channel
    dependencies. *)

type scratch
(** Int buffers for one graph's discoveries and reorders, allocated once
    so that a reorder allocates nothing. Not shareable across domains. *)

val scratch : int -> scratch
(** [scratch n]: buffers for vertices [0 .. n-1]. *)

val fwd : scratch -> int array
(** The buffer holding the forward discovery set F. *)

val bwd : scratch -> int array
(** The buffer holding the backward discovery set B. *)

val reassign : scratch -> ord:int array -> nback:int -> nfwd:int -> unit
(** The Pearce-Kelly reorder step. [ord] is a permutation of
    [0 .. n-1]; [bwd.(0 .. nback-1)] (B) and [fwd.(0 .. nfwd-1)] (F)
    are disjoint vertex sets. Their vertices take the sorted pool of
    their current [ord] slots: B's in their old order first, then F's.
    Overwrites both prefixes. *)

val to_dot : ?isolated:bool -> t -> string
(** Graphviz rendering: vertices annotated with their topological index,
    edges labelled with their multiplicity when above 1. Vertices with
    no incident edge are omitted unless [isolated] is [true]. *)
