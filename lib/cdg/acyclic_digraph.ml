(* Pearce & Kelly, "A dynamic topological sort algorithm for directed
   acyclic graphs" (JEA 2006). The order is a permutation [ord].
   Inserting u -> v with ord.(v) < ord.(u) triggers a local discovery:
   F = vertices reachable from v with order <= ord.(u), B = vertices
   reaching u with order >= ord.(v). If u is in F the edge closes a
   cycle. Otherwise the vertices of B ∪ F are reassigned to the sorted
   pool of their old order slots, B first ([reassign], shared with the
   used-edge order of {!Complete_cdg}).

   Adjacency lives in the shared CSR pool; the bounded discoveries use
   their own result buffers as work queues with stamp-array seen sets,
   so a try_add_edge probe allocates nothing. *)

module Obs = Nue_obs.Obs
module Adjacency = Nue_structures.Adjacency

let c_add = Obs.counter "pk.add_calls"
let c_fast = Obs.counter "pk.add_fast" (* duplicate or already ordered *)
let c_reorder = Obs.counter "pk.add_reorder"
let c_cycle = Obs.counter "pk.add_cycle"
let c_moved = Obs.counter "pk.reorder_moved" (* vertices reassigned *)

type scratch = {
  fwd : int array;
  bwd : int array;
  tmp : int array; (* radix sort scatter target *)
  counts : int array; (* radix digit counters *)
  vbits : int; (* bits of a vertex id in a packed key *)
}

let scratch n =
  let rec bits b = if 1 lsl b >= n then b else bits (b + 1) in
  { fwd = Array.make n 0;
    bwd = Array.make n 0;
    tmp = Array.make n 0;
    counts = Array.make 256 0;
    vbits = bits 1 }

let fwd s = s.fwd

let bwd s = s.bwd

(* Ascending sort of the packed keys [a.(0 .. len-1)]: insertion sort
   for the small sets typical of local reorders, else an LSD radix sort
   on the slot field a byte per pass, skipping bytes all keys share. *)
let sort_packed s a len =
  if len <= 32 then
    for i = 1 to len - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let c = s.counts in
    let src = ref a and dst = ref s.tmp in
    let shift = ref s.vbits in
    while !shift < 2 * s.vbits do
      let x = !src and y = !dst and sh = !shift in
      Array.fill c 0 256 0;
      for i = 0 to len - 1 do
        let d = (x.(i) lsr sh) land 255 in
        c.(d) <- c.(d) + 1
      done;
      if c.((x.(0) lsr sh) land 255) < len then begin
        let sum = ref 0 in
        for d = 0 to 255 do
          let k = c.(d) in
          c.(d) <- !sum;
          sum := !sum + k
        done;
        for i = 0 to len - 1 do
          let v = x.(i) in
          let d = (v lsr sh) land 255 in
          y.(c.(d)) <- v;
          c.(d) <- c.(d) + 1
        done;
        src := y;
        dst := x
      end;
      shift := sh + 8
    done;
    if !src != a then Array.blit !src 0 a 0 len
  end

(* Each vertex is packed with its slot as [ord lsl vbits lor v], so
   sorting the packed ints sorts by slot (slots are distinct) and the
   vertex is still recoverable. The merge walks both sorted slot lists
   while the k-th vertex of B ++ F takes the k-th smallest slot; only
   [ord] is written, so the packed buffers stay readable throughout. *)
let reassign s ~ord ~nback ~nfwd =
  let vb = s.vbits and back = s.bwd and fwd = s.fwd in
  let mask = (1 lsl vb) - 1 in
  for i = 0 to nback - 1 do
    back.(i) <- (ord.(back.(i)) lsl vb) lor back.(i)
  done;
  for i = 0 to nfwd - 1 do
    fwd.(i) <- (ord.(fwd.(i)) lsl vb) lor fwd.(i)
  done;
  sort_packed s back nback;
  sort_packed s fwd nfwd;
  let i = ref 0 and j = ref 0 in
  for k = 0 to nback + nfwd - 1 do
    let slot =
      if !j >= nfwd || (!i < nback && back.(!i) < fwd.(!j)) then begin
        let x = back.(!i) lsr vb in
        incr i;
        x
      end
      else begin
        let x = fwd.(!j) lsr vb in
        incr j;
        x
      end
    in
    let key = if k < nback then back.(k) else fwd.(k - nback) in
    ord.(key land mask) <- slot
  done

type t = {
  n : int;
  succ : Adjacency.t;
  pred : Adjacency.t;
  ord : int array; (* vertex -> topological index *)
  stamp : int array; (* scratch: visited iff stamp.(v) = clock *)
  mutable clock : int;
  pk : scratch;
}

let create n =
  { n;
    succ = Adjacency.create n;
    pred = Adjacency.create n;
    ord = Array.init n (fun i -> i);
    stamp = Array.make n 0;
    clock = 0;
    pk = scratch n }

let mem_edge t u v = Adjacency.mem t.succ u v

let multiplicity t u v = Adjacency.multiplicity t.succ u v

let num_edges t = Adjacency.distinct_edges t.succ

let order t v = t.ord.(v)

let bump t u v =
  ignore (Adjacency.add t.succ u v : bool);
  ignore (Adjacency.add t.pred v u : bool)

(* Bounded discovery over [adj] from [start] into [buf], visiting only
   vertices whose order lies in [lo, hi]. Returns the set size, or -1
   as soon as [target] qualifies. *)
let discover t adj buf ~start ~target ~lo ~hi =
  t.clock <- t.clock + 1;
  let c = t.clock in
  t.stamp.(start) <- c;
  buf.(0) <- start;
  let len = ref 1 and head = ref 0 and found = ref false in
  while (not !found) && !head < !len do
    let x = buf.(!head) in
    incr head;
    let deg = Adjacency.degree adj x in
    let i = ref 0 in
    while (not !found) && !i < deg do
      let y = Adjacency.succ_ix adj x !i in
      incr i;
      let o = t.ord.(y) in
      if o >= lo && o <= hi && t.stamp.(y) <> c then
        if y = target then found := true
        else begin
          t.stamp.(y) <- c;
          buf.(!len) <- y;
          incr len
        end
    done
  done;
  if !found then -1 else !len

let try_add_edge t u v =
  Obs.incr c_add;
  if u = v then begin
    Obs.incr c_cycle;
    false
  end
  else if mem_edge t u v then begin
    Obs.incr c_fast;
    bump t u v;
    true
  end
  else if t.ord.(u) < t.ord.(v) then begin
    Obs.incr c_fast;
    bump t u v;
    true
  end
  else begin
    let lower = t.ord.(v) and upper = t.ord.(u) in
    (* Forward discovery from v, bounded by [upper]; finding u there
       means v already reaches u and the edge would close a cycle. *)
    let nfwd =
      discover t t.succ t.pk.fwd ~start:v ~target:u ~lo:lower ~hi:upper
    in
    if nfwd < 0 then begin
      Obs.incr c_cycle;
      false
    end
    else begin
      (* Backward discovery from u, bounded by [lower]. [target] is -1:
         nothing reaching u from above can be v, or fwd would have
         cycled. *)
      let nback =
        discover t t.pred t.pk.bwd ~start:u ~target:(-1) ~lo:lower ~hi:upper
      in
      reassign t.pk ~ord:t.ord ~nback ~nfwd;
      Obs.incr c_reorder;
      Obs.add c_moved (nback + nfwd);
      bump t u v;
      true
    end
  end

(* Graphviz rendering: vertices annotated with their current Pearce-
   Kelly topological index, edges labelled with their multiplicity when
   above 1. Isolated vertices are omitted unless [isolated] is set —
   LASH/static-CDG graphs are sparse in practice and the noise drowns
   the structure. *)
let to_dot ?(isolated = false) t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph \"acyclic-cdg\" {\n  rankdir=LR;\n";
  Buffer.add_string buf "  node [shape=ellipse, fontsize=9];\n";
  for v = 0 to t.n - 1 do
    if isolated
       || Adjacency.degree t.succ v > 0
       || Adjacency.degree t.pred v > 0
    then
      Buffer.add_string buf
        (Printf.sprintf "  v%d [label=\"%d (ord %d)\"];\n" v v t.ord.(v))
  done;
  for u = 0 to t.n - 1 do
    (* CSR segments are already sorted ascending. *)
    Adjacency.iter_mult t.succ u (fun v m ->
        let label =
          if m > 1 then Printf.sprintf " [label=\"x%d\", fontsize=8]" m
          else ""
        in
        Buffer.add_string buf (Printf.sprintf "  v%d -> v%d%s;\n" u v label))
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let remove_edge t u v =
  match Adjacency.remove t.succ u v with
  | (_ : bool) -> ignore (Adjacency.remove t.pred v u : bool)
  | exception Invalid_argument _ ->
    invalid_arg "Acyclic_digraph.remove_edge: absent edge"
