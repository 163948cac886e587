(** Per-route provenance: why Nue's destination routing chose each hop.

    Nue computes paths {e inside} the complete channel dependency graph,
    so the interesting question an operator asks — "why did pair (s, d)
    take this path, on this virtual layer, through an escape path?" —
    is answered by the sequence of CDG decisions taken while the
    destination was routed: which dependency edges were admitted (and
    under which condition of Section 4.6.1), which alternatives the
    omega acyclicity check blocked, where the search hit an impasse,
    backtracked, or fell back to the escape paths.

    This module records exactly that trail. Recording is {e off by
    default}: while disabled, every hook in the routing core reduces to
    a single flag test — no allocation, no work — mirroring the
    discipline of [Nue_obs]. Enable it around one
    routing computation with {!with_recording}, then derive per-pair
    {!explanation}s that are cross-checked against the computed table.

    Everything recorded is a pure function of the routing inputs, so two
    identical seeded runs produce identical trails (tested). *)

module Complete_cdg = Nue_cdg.Complete_cdg
module Table = Nue_routing.Table

(** {1 Recorded data} *)

(** One acyclicity check of a candidate dependency. *)
type check_subject =
  | Cdg_edge of Complete_cdg.verdict
      (** a real CDG dependency edge; the verdict says which of
          conditions (a)-(d) decided it *)
  | Into_destination
      (** the candidate channel ends at the destination — no onward
          dependency, always admissible *)
  | No_edge
      (** the CDG has no such dependency edge (a 180-degree turn,
          excluded by Definition 6) *)

type check = {
  chk_channel : int;  (** candidate out-channel at the deciding node *)
  chk_onto : int;     (** downstream channel of the dependency; -1 when
                          the candidate ends at the destination *)
  chk_subject : check_subject;
  chk_omega_before : int;
      (** the edge's omega immediately before the check (-1 blocked,
          0 unused, >= 1 its subgraph id); 0 for non-edges *)
}

val check_ok : check -> bool
(** Whether the check admitted the candidate. *)

(** How a node's out-channel ended up in the table. *)
type via =
  | Dijkstra   (** finalized by the constrained Dijkstra (Algorithm 1) *)
  | Backtrack  (** island solved directly by the 2-hop lookaround
                   (Section 4.6.2) *)
  | Switch     (** re-pointed so a neighboring island could route
                   (Section 4.6.2) *)
  | Shortcut   (** re-routed by the post-island shortcut pass
                   (Section 4.6.3) *)
  | Escape     (** escape-path fallback (Lemma 3) *)

val via_to_string : via -> string

type step =
  | Check of check
  | Finalize of { node : int; channel : int; dist : float; via : via }
  | Impasse of { islands : int }
  | Escape_fallback of { unsolved : int }

(** Chronological decision trail of one destination-routing round. *)
type trail = {
  t_dest : int;
  t_layer : int;
  t_root : int;            (** escape root of the layer *)
  t_escape_fallback : bool;
  t_steps : step array;
}

(** Captured per-layer context: the layer's complete CDG in its final
    state (retained, not copied — Nue discards it otherwise) and the
    escape tree. *)
type layer_capture = {
  l_layer : int;
  l_root : int;
  l_cdg : Complete_cdg.t;
  l_escape_channels : bool array;  (** channel on the escape tree *)
  l_initial_deps : int;            (** dependencies pre-seeded by it *)
}

type run = {
  r_strategy : string;  (** partition strategy that chose the layers *)
  r_seed : int;
  r_vcs : int;
  r_layers : layer_capture array;
  r_trails : trail array;  (** one per routed destination, in order *)
}

(** {1 Enabling and capture} *)

val enabled : unit -> bool
(** The ["provenance"] switch; [false] at startup. *)

val enable : unit -> unit

val disable : unit -> unit

val with_recording : (unit -> 'a) -> 'a * run option
(** Run a thunk with recording enabled (clearing any partial state
    first) and capture the trails the routing core recorded. [None]
    when nothing recorded a run (the thunk did not route with Nue).
    Restores the previous enabled state, also on exception. *)

val capture : unit -> run option
(** Take the currently recorded run, clearing the recorder. *)

(** {1 Recording hooks (called by the routing core)}

    All hooks are cheap no-ops unless {!enabled} — call sites guard
    argument construction behind [if Provenance.enabled () then ...]. *)

val start_run : strategy:string -> seed:int -> vcs:int -> unit

val begin_layer : layer:int -> root:int -> cdg:Complete_cdg.t -> unit

val record_escape_prepared :
  channels:bool array -> initial_deps:int -> unit
(** Called by [Escape.prepare] once the layer's escape tree is seeded. *)

val begin_dest : dest:int -> unit
(** Open a trail for one destination on the {e calling domain}: the
    recording hooks below append to the calling domain's open trail, so
    pool workers speculating different destinations never interleave
    steps. The trail does not join the run until {!commit_dest}. *)

type pending
(** A finished (or abandoned) destination trail, detached from the
    recorder and safe to hand across domains. *)

val take_dest : unit -> pending option
(** Detach the calling domain's open trail. Parallel Nue calls this on
    the worker right after the speculation finishes and ships the
    result home with the routing result. *)

val commit_dest : pending -> unit
(** Append a detached trail to the current run. The routing driver
    commits trails in destination order — the same order the
    sequential path records them — so provenance output is independent
    of the worker schedule. No-op if no run is being recorded. *)

val end_dest : unit -> unit
(** [take_dest] + [commit_dest] in one step: the sequential-path
    shorthand for "this destination's trail is final". *)

val record_check :
  channel:int -> onto:int -> omega_before:int -> check_subject -> unit

val record_finalize : node:int -> channel:int -> dist:float -> via:via -> unit

val record_impasse : islands:int -> unit

val record_escape_fallback : unsolved:int -> unit

(** {1 Explaining a pair} *)

type hop = {
  h_node : int;            (** deciding node *)
  h_channel : int;         (** chosen out-channel *)
  h_vl : int;              (** virtual lane of the hop *)
  h_via : via;
  h_onto : int;            (** downstream dependency channel; -1 at the
                               destination *)
  h_dist : float option;   (** final distance, when search-finalized *)
  h_accepted : check option;
      (** the successful acyclicity check that admitted the hop's
          dependency edge; [None] for escape hops (pre-seeded, cycle-free
          by construction) and hops into the destination *)
  h_rejected : (check * int) list;
      (** alternatives at this node the omega check (or Definition 6)
          rejected, in first-decision order, deduplicated: the [int] is
          how many times the search re-tested and re-rejected that same
          dependency *)
}

type explanation = {
  e_src : int;
  e_dst : int;
  e_layer : int;
  e_root : int;
  e_strategy : string;
  e_seed : int;
  e_vcs : int;
  e_escape_fallback : bool;
  e_backtracks : int;   (** islands solved by backtracking for this dest *)
  e_impasses : int;
  e_hops : hop list;    (** in path order, src first *)
}

val explain : run -> Table.t -> src:int -> dst:int -> explanation option
(** Join the recorded trail of [dst] with the table's path for the pair.
    The hops are read off the table, so the explanation always agrees
    with it; [None] when the run has no trail for [dst] or the table has
    no path. *)

val explanation_to_string : Table.t -> explanation -> string
(** Human-readable hop-by-hop rendering (the [nue_route explain] text
    output). *)
