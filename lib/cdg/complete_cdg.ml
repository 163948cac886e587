module Network = Nue_netgraph.Network
module Obs = Nue_obs.Obs
module Span = Nue_obs.Span

(* Section 4.6.1 effectiveness counters: the omega labels memoize the
   acyclicity question, so "hits" are calls answered from stored state
   — (a) blocked, (b) already used — and "misses" are the calls that
   needed real work: the subgraph-id comparison of (c) or the recheck
   of (d). [cdg.search_visited] counts the channels visited by the
   bounded discoveries that keep and query the topological order. *)
let c_usable = Obs.counter "cdg.usable_calls"
let c_hit_blocked = Obs.counter "cdg.memo.hit_blocked"
let c_hit_used = Obs.counter "cdg.memo.hit_used"
let c_distinct = Obs.counter "cdg.memo.miss_distinct"
let c_search = Obs.counter "cdg.memo.miss_search"
let c_visited = Obs.counter "cdg.search_visited"
let c_accept = Obs.counter "cdg.edges_accepted"
let c_reject = Obs.counter "cdg.edges_rejected"
let c_merge = Obs.counter "cdg.subgraph_merges"
let c_relabel = Obs.counter "cdg.subgraph_relabels"

(* Speculative-execution journal: the state-changing operations of one
   destination's search, recorded against a scratch clone and replayed
   onto the authoritative CDG at commit time (see [replay] below for
   the soundness argument). Ops are packed three ints at a time:
   tag (0 fresh channel use / 1 edge admission / 2 edge block), then
   the channel or (from, slot) pair. *)
type journal = {
  mutable ops : int array;
  mutable jlen : int; (* op count; 3 * jlen ints are live in [ops] *)
}

type t = {
  net : Network.t;
  succ : int array array;
  succ_state : int array array; (* omega per edge, aligned with succ *)
  pred : int array array;
  pred_slot : int array array;
  chan_state : int array; (* omega per channel *)
  mutable next_id : int;
  (* Union-find over subgraph ids: two dense arrays instead of a
     hashtable of member lists. At most one fresh id per channel, so
     ids fit in [1 .. nc] and the tables are sized once. Stored omegas
     (chan_state / succ_state) may be stale after merges; [find]
     canonicalizes on read. *)
  group_parent : int array;
  group_size : int array; (* member count (channels + edges) per root *)
  (* Pearce-Kelly topological order over all channels: every used edge
     p -> q has ord.(p) < ord.(q). Unused channels sit anywhere. *)
  ord : int array;
  (* Discovery scratch, private to each graph and clone: visit stamps
     avoid clearing a visited array per search, and the two discovery
     sets double as their own work queues. *)
  stamp : int array;
  mutable clock : int;
  pk : Acyclic_digraph.scratch;
  mutable searches : int;
  nedges : int;
  mutable journal : journal option;
}

let create net =
  let nc = Network.num_channels net in
  let succ = Array.make nc [||] in
  let succ_state = Array.make nc [||] in
  let pred_count = Array.make nc 0 in
  let nedges = ref 0 in
  for c = 0 to nc - 1 do
    let u = Network.src net c and v = Network.dst net c in
    let out = Network.out_channels net v in
    (* Successors: channels leaving v, except those returning to u
       (Definition 6 requires n_x <> n_z, excluding 180-degree turns
       through any parallel channel). *)
    let count = ref 0 in
    for i = 0 to Array.length out - 1 do
      if Network.dst net out.(i) <> u then incr count
    done;
    let s = Array.make !count 0 in
    let j = ref 0 in
    for i = 0 to Array.length out - 1 do
      if Network.dst net out.(i) <> u then begin
        s.(!j) <- out.(i);
        incr j;
        pred_count.(out.(i)) <- pred_count.(out.(i)) + 1
      end
    done;
    succ.(c) <- s;
    succ_state.(c) <- Array.make !count 0;
    nedges := !nedges + !count
  done;
  let pred = Array.init nc (fun c -> Array.make pred_count.(c) 0) in
  let pred_slot = Array.init nc (fun c -> Array.make pred_count.(c) 0) in
  let fill = Array.make nc 0 in
  for c = 0 to nc - 1 do
    Array.iteri
      (fun slot q ->
         pred.(q).(fill.(q)) <- c;
         pred_slot.(q).(fill.(q)) <- slot;
         fill.(q) <- fill.(q) + 1)
      succ.(c)
  done;
  { net; succ; succ_state; pred; pred_slot;
    chan_state = Array.make nc 0;
    next_id = 1;
    group_parent = Array.init (nc + 1) (fun i -> i);
    group_size = Array.make (nc + 1) 0;
    ord = Array.init nc (fun i -> i);
    stamp = Array.make nc 0;
    clock = 0;
    pk = Acyclic_digraph.scratch nc;
    searches = 0;
    nedges = !nedges;
    journal = None }

(* Scratch clones share the immutable structure (succ/pred/slot arrays,
   the network) and copy only the mutable routing state — cheap enough
   to take one per destination speculation. The discovery scratch is
   fresh: clones run on other domains. *)
let clone t =
  let nc = Array.length t.succ in
  { t with
    succ_state = Array.map Array.copy t.succ_state;
    chan_state = Array.copy t.chan_state;
    group_parent = Array.copy t.group_parent;
    group_size = Array.copy t.group_size;
    ord = Array.copy t.ord;
    stamp = Array.make nc 0;
    clock = 0;
    pk = Acyclic_digraph.scratch nc;
    journal = None }

let copy_state_into ~src ~dst =
  let nc = Array.length src.succ in
  if Array.length dst.succ <> nc then
    invalid_arg "Complete_cdg.copy_state_into: different networks";
  for c = 0 to nc - 1 do
    let row = src.succ_state.(c) in
    Array.blit row 0 dst.succ_state.(c) 0 (Array.length row)
  done;
  Array.blit src.chan_state 0 dst.chan_state 0 nc;
  Array.blit src.group_parent 0 dst.group_parent 0 (nc + 1);
  Array.blit src.group_size 0 dst.group_size 0 (nc + 1);
  Array.blit src.ord 0 dst.ord 0 nc;
  dst.next_id <- src.next_id;
  dst.searches <- src.searches

let journal_create () = { ops = Array.make 96 0; jlen = 0 }

let journal_clear j = j.jlen <- 0

let journal_length j = j.jlen

let set_journal t j = t.journal <- j

let jpush j tag a b =
  let base = 3 * j.jlen in
  if base + 3 > Array.length j.ops then begin
    let nops = Array.make (2 * Array.length j.ops) 0 in
    Array.blit j.ops 0 nops 0 base;
    j.ops <- nops
  end;
  j.ops.(base) <- tag;
  j.ops.(base + 1) <- a;
  j.ops.(base + 2) <- b;
  j.jlen <- j.jlen + 1

let network t = t.net

let num_channels t = Array.length t.succ

let num_edges t = t.nedges

let succ t c = t.succ.(c)

let pred t c = t.pred.(c)

let pred_slot t c = t.pred_slot.(c)

let find_slot t ~from ~to_ =
  let s = t.succ.(from) in
  let rec go i =
    if i >= Array.length s then None
    else if s.(i) = to_ then Some i
    else go (i + 1)
  in
  go 0

(* Canonical subgraph id, with path halving. The surviving root under
   union-by-size (first argument wins ties) is exactly the id the old
   eager smaller-into-larger relabeling kept, so observable omegas —
   and hence provenance output — are unchanged by the representation. *)
let find t x =
  let x = ref x in
  while t.group_parent.(!x) <> !x do
    let p = t.group_parent.(!x) in
    t.group_parent.(!x) <- t.group_parent.(p);
    x := t.group_parent.(!x)
  done;
  !x

let channel_omega t c =
  let s = t.chan_state.(c) in
  if s <= 0 then s else find t s

let edge_omega t ~from ~slot =
  let s = t.succ_state.(from).(slot) in
  if s <= 0 then s else find t s

let use_channel t c =
  if t.chan_state.(c) > 0 then find t t.chan_state.(c)
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    t.chan_state.(c) <- id;
    t.group_size.(id) <- 1;
    (match t.journal with Some j -> jpush j 0 c 0 | None -> ());
    id
  end

(* Union by size, smaller under larger; returns the surviving root. *)
let merge t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then ra
  else begin
    let keep, drop =
      if t.group_size.(ra) >= t.group_size.(rb) then ra, rb else rb, ra
    in
    Obs.incr c_merge;
    (* Counter semantics shift with the representation: this still
       tallies the members absorbed from the smaller group, but no
       per-member relabeling work happens anymore — reads canonicalize
       lazily through [find]. *)
    Obs.add c_relabel t.group_size.(drop);
    t.group_parent.(drop) <- keep;
    t.group_size.(keep) <- t.group_size.(keep) + t.group_size.(drop);
    keep
  end

(* [id] must be canonical (callers pass a fresh [use_channel]/[merge]
   result or a [channel_omega] read). *)
let mark_edge_used t ~from ~slot id =
  t.succ_state.(from).(slot) <- id;
  t.group_size.(id) <- t.group_size.(id) + 1

(* Bounded forward discovery over used edges from [start], visiting
   only channels ordered at or below [hi] = ord.(target): a used path
   start ~> target climbs the order, so it cannot leave that window.
   Fills [fwd] with the set F and returns its size, or -1 as soon as
   [target] is reached. *)
let discover_fwd t ~start ~target ~hi =
  t.clock <- t.clock + 1;
  let c = t.clock in
  let fwd = Acyclic_digraph.fwd t.pk in
  t.stamp.(start) <- c;
  fwd.(0) <- start;
  let len = ref 1 and head = ref 0 and found = ref (start = target) in
  while (not !found) && !head < !len do
    let x = fwd.(!head) in
    incr head;
    let s = t.succ.(x) and st = t.succ_state.(x) in
    let i = ref 0 in
    while (not !found) && !i < Array.length s do
      let y = s.(!i) in
      if st.(!i) >= 1 && t.ord.(y) <= hi && t.stamp.(y) <> c then
        if y = target then found := true
        else begin
          t.stamp.(y) <- c;
          fwd.(!len) <- y;
          incr len
        end;
      incr i
    done
  done;
  Obs.add c_visited !len;
  if !found then -1 else !len

(* Bounded backward discovery over used edges into [start], visiting
   only channels ordered at or above [lo]. Fills [bwd] (the set B) and
   returns its size. *)
let discover_bwd t ~start ~lo =
  t.clock <- t.clock + 1;
  let c = t.clock in
  let bwd = Acyclic_digraph.bwd t.pk in
  t.stamp.(start) <- c;
  bwd.(0) <- start;
  let len = ref 1 and head = ref 0 in
  while !head < !len do
    let x = bwd.(!head) in
    incr head;
    let p = t.pred.(x) and ps = t.pred_slot.(x) in
    for i = 0 to Array.length p - 1 do
      let y = p.(i) in
      if t.succ_state.(y).(ps.(i)) >= 1 && t.ord.(y) >= lo
         && t.stamp.(y) <> c
      then begin
        t.stamp.(y) <- c;
        bwd.(!len) <- y;
        incr len
      end
    done
  done;
  Obs.add c_visited !len;
  !len

(* Restore the order before admitting [from -> q] against it, given F
   already in [fwd]: B is [from] alone when [from] was unused (it has
   no used edges), otherwise the backward discovery. *)
let reorder t ~from ~q ~nfwd ~fresh_from =
  let nback =
    if fresh_from then begin
      (Acyclic_digraph.bwd t.pk).(0) <- from;
      1
    end
    else discover_bwd t ~start:from ~lo:t.ord.(q)
  in
  Acyclic_digraph.reassign t.pk ~ord:t.ord ~nback ~nfwd

type verdict =
  | Blocked_memo
  | Used_memo
  | Distinct_merge
  | Search_acyclic
  | Search_cycle

let verdict_ok = function
  | Used_memo | Distinct_merge | Search_acyclic -> true
  | Blocked_memo | Search_cycle -> false

let verdict_condition = function
  | Blocked_memo -> 'a'
  | Used_memo -> 'b'
  | Distinct_merge -> 'c'
  | Search_acyclic | Search_cycle -> 'd'

let verdict_to_string = function
  | Blocked_memo -> "blocked-memo"
  | Used_memo -> "used-memo"
  | Distinct_merge -> "distinct-merge"
  | Search_acyclic -> "search-acyclic"
  | Search_cycle -> "search-cycle"

(* (d) admission inside one subgraph: the order already holds. *)
let admit_within t ~from ~slot om =
  Obs.incr c_accept;
  mark_edge_used t ~from ~slot om;
  match t.journal with Some j -> jpush j 1 from slot | None -> ()

(* The omega recheck against the order: ord.(q) < ord.(from), so a used
   path q ~> from, if any, lies inside the window the forward discovery
   covers. An admission then reorders, reusing that discovery as F. *)
let recheck t ~from ~slot ~q ~om ~commit =
  let nfwd = discover_fwd t ~start:q ~target:from ~hi:t.ord.(from) in
  if nfwd < 0 then begin
    if commit then begin
      Obs.incr c_reject;
      t.succ_state.(from).(slot) <- -1;
      match t.journal with Some j -> jpush j 2 from slot | None -> ()
    end;
    Search_cycle
  end
  else begin
    if commit then begin
      reorder t ~from ~q ~nfwd ~fresh_from:false;
      admit_within t ~from ~slot om
    end;
    Search_acyclic
  end

let usable t ~from ~slot ~commit =
  Obs.incr c_usable;
  let state = t.succ_state.(from).(slot) in
  if state = -1 then begin
    (* (a) known to close a cycle *)
    Obs.incr c_hit_blocked;
    if commit then Obs.incr c_reject;
    Blocked_memo
  end
  else if state >= 1 then begin
    (* (b) already used, already acyclic *)
    Obs.incr c_hit_used;
    if commit then Obs.incr c_accept;
    Used_memo
  end
  else begin
    let q = t.succ.(from).(slot) in
    (* Canonical omegas: stored ids may be stale after merges. *)
    let om_p = channel_omega t from and om_q = channel_omega t q in
    if om_p = 0 || om_q = 0 || om_p <> om_q then begin
      (* (c) connecting distinct (or fresh) acyclic subgraphs cannot
         close a cycle. *)
      Obs.incr c_distinct;
      if commit then begin
        Obs.incr c_accept;
        (* Against the order, reorder first. F is q alone when q was
           unused; otherwise the forward discovery cannot reach [from]
           in another subgraph and just collects F. *)
        if t.ord.(from) > t.ord.(q) then begin
          let nfwd =
            if om_q = 0 then begin
              (Acyclic_digraph.fwd t.pk).(0) <- q;
              1
            end
            else discover_fwd t ~start:q ~target:from ~hi:t.ord.(from)
          in
          reorder t ~from ~q ~nfwd ~fresh_from:(om_p = 0)
        end;
        (* One admission op covers the whole (c) commit: the inner
           [use_channel] calls replay implicitly through the real
           graph's own [try_use_edge], so suspend journaling around
           them. *)
        let j = t.journal in
        t.journal <- None;
        let id_p = use_channel t from in
        let id_q = use_channel t q in
        let id = merge t id_p id_q in
        mark_edge_used t ~from ~slot id;
        t.journal <- j;
        (match j with Some j -> jpush j 1 from slot | None -> ())
      end;
      Distinct_merge
    end
    else begin
      (* (d) both endpoints carry the same subgraph id. *)
      Obs.incr c_search;
      t.searches <- t.searches + 1;
      if t.ord.(from) < t.ord.(q) then begin
        (* The order already agrees, so no used path q ~> from exists. *)
        if commit then admit_within t ~from ~slot om_p;
        Search_acyclic
      end
      else if Span.enabled () then begin
        (* One span per discovery; the visited-count delta is its
           payload. *)
        let span =
          Span.enter "cdg.omega_recheck"
            ~args:[ ("from", Span.Int from); ("to", Span.Int q) ]
        in
        let v0 = Obs.peek c_visited in
        let v = recheck t ~from ~slot ~q ~om:om_p ~commit in
        Span.exit span
          ~args:
            [ ("cycle_found", Span.Bool (v = Search_cycle));
              ("visited", Span.Int (Obs.peek c_visited - v0)) ];
        v
      end
      else recheck t ~from ~slot ~q ~om:om_p ~commit
    end
  end

let try_use_edge t ~from ~slot = verdict_ok (usable t ~from ~slot ~commit:true)

let try_use_edge_v t ~from ~slot = usable t ~from ~slot ~commit:true

let would_use_edge t ~from ~slot =
  verdict_ok (usable t ~from ~slot ~commit:false)

(* Replay a speculation's journal onto the authoritative graph. The
   speculation ran against scratch = snapshot + its own ops; the real
   graph at replay time is snapshot + other destinations' committed
   ops + this journal's already-replayed prefix — a superset of what
   each op saw, where used state only ever grows.

   - Channel uses and edge admissions go through the regular
     [use_channel]/[try_use_edge]: an edge the speculation admitted may
     close a cycle against another destination's commits, in which case
     replay reports failure and the caller re-routes that destination
     sequentially. (A failed replay leaves its admitted prefix used,
     which is conservative but sound — the same stance as a failed
     [try_switch] in the search itself.)
   - Blocks are sound to replay directly: the speculative cycle's used
     edges were each either in the snapshot (still used — used state
     never reverts) or admitted earlier in this same journal (already
     replayed), so the cycle exists in the real graph too and the edge
     must stay out. By the same argument the blocked edge cannot be
     used in the real graph; finding it used means the prefix did not
     commit cleanly, so replay reports failure defensively. *)
let replay t j =
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < j.jlen do
    let base = 3 * !i in
    let tag = j.ops.(base) in
    let a = j.ops.(base + 1) and b = j.ops.(base + 2) in
    (match tag with
     | 0 -> ignore (use_channel t a)
     | 1 -> if not (try_use_edge t ~from:a ~slot:b) then ok := false
     | _ ->
       let st = t.succ_state.(a) in
       if st.(b) >= 1 then ok := false
       else if st.(b) = 0 then st.(b) <- -1);
    Stdlib.incr i
  done;
  !ok

let used_subgraph_acyclic t =
  let nc = num_channels t in
  let color = Array.make nc 0 in
  let acyclic = ref true in
  (* Iterative DFS with an explicit (vertex, next-slot) stack. *)
  let stack = Stack.create () in
  for start = 0 to nc - 1 do
    if !acyclic && color.(start) = 0 && t.chan_state.(start) >= 1 then begin
      color.(start) <- 1;
      Stack.push (start, ref 0) stack;
      while !acyclic && not (Stack.is_empty stack) do
        let c, next = Stack.top stack in
        let s = t.succ.(c) and st = t.succ_state.(c) in
        let advanced = ref false in
        while (not !advanced) && !next < Array.length s do
          let i = !next in
          incr next;
          if st.(i) >= 1 then begin
            let q = s.(i) in
            if color.(q) = 1 then acyclic := false
            else if color.(q) = 0 then begin
              color.(q) <- 1;
              Stack.push (q, ref 0) stack;
              advanced := true
            end
          end
        done;
        if (not !advanced) && !next >= Array.length s then begin
          color.(c) <- 2;
          ignore (Stack.pop stack)
        end
      done;
      Stack.clear stack
    end
  done;
  !acyclic

let count_states t ~used ~blocked ~unused =
  Array.iter
    (fun st ->
       Array.iter
         (fun s ->
            if s = -1 then incr blocked
            else if s = 0 then incr unused
            else incr used)
         st)
    t.succ_state

let cycle_searches t = t.searches

(* Graphviz rendering of the complete CDG with its routing state.
   Vertices are channels (labelled with their endpoints), edges are
   dependencies colored by omega: gray dotted while unused, blue while
   used (labelled with the subgraph id), red dashed once blocked.
   [escape] flags channels to draw double-bordered (the escape-path
   tree); [highlight_path] overlays one pair's channel sequence in
   orange, including the dependency edges between consecutive hops. *)
let used_digraph t =
  let nc = Array.length t.succ in
  let g = Acyclic_digraph.create nc in
  for c = 0 to nc - 1 do
    let s = t.succ.(c) and st = t.succ_state.(c) in
    for slot = 0 to Array.length s - 1 do
      if st.(slot) >= 1 then
        if not (Acyclic_digraph.try_add_edge g c s.(slot)) then
          invalid_arg "Complete_cdg.used_digraph: used edges contain a cycle"
    done
  done;
  g

let to_dot ?(highlight_path = []) ?(escape = [||]) t =
  let nc = num_channels t in
  let on_path = Array.make nc false in
  List.iter
    (fun c -> if c >= 0 && c < nc then on_path.(c) <- true)
    highlight_path;
  let path_edge = Hashtbl.create 16 in
  let rec mark_path = function
    | c1 :: (c2 :: _ as rest) ->
      Hashtbl.replace path_edge (c1, c2) ();
      mark_path rest
    | _ -> []
  in
  ignore (mark_path highlight_path);
  let is_escape c = c < Array.length escape && escape.(c) in
  let buf = Buffer.create (256 * (nc + 1)) in
  Buffer.add_string buf "digraph \"complete-cdg\" {\n";
  Buffer.add_string buf "  rankdir=LR;\n  node [fontsize=9];\n";
  for c = 0 to nc - 1 do
    let u = Network.src t.net c and v = Network.dst t.net c in
    let om = channel_omega t c in
    let fill, fontcolor =
      if on_path.(c) then ("orange", "black")
      else if om >= 1 then ("lightblue", "black")
      else ("white", "gray40")
    in
    let peripheries = if is_escape c then 2 else 1 in
    Buffer.add_string buf
      (Printf.sprintf
         "  c%d [label=\"c%d: %d-%d%s\", shape=box, style=filled, \
          fillcolor=\"%s\", fontcolor=\"%s\", peripheries=%d];\n"
         c c u v
         (if om >= 1 then Printf.sprintf "\\nomega=%d" om else "")
         fill fontcolor peripheries)
  done;
  for c = 0 to nc - 1 do
    let s = t.succ.(c) and st = t.succ_state.(c) in
    for i = 0 to Array.length s - 1 do
      let q = s.(i) in
      let attrs =
        if Hashtbl.mem path_edge (c, q) then
          "color=orange, penwidth=2.5"
        else
          match st.(i) with
          | -1 -> "color=red, style=dashed"
          | 0 -> "color=gray70, style=dotted"
          | _ ->
            Printf.sprintf "color=blue, label=\"%d\", fontsize=8"
              (edge_omega t ~from:c ~slot:i)
      in
      Buffer.add_string buf
        (Printf.sprintf "  c%d -> c%d [%s];\n" c q attrs)
    done
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
