module Network = Nue_netgraph.Network
module Graph_algo = Nue_netgraph.Graph_algo

let pick_root net =
  (* Minimum-eccentricity switch; ties toward the earlier switch. Links
     are bidirectional, so a complete BFS from any node x gives every
     switch w it reaches the lower bound
     ecc(w) >= max(d(x,w), ecc(x) - d(x,w)) (Takes & Kosters). Only
     switches whose bound can still beat the best so far are searched,
     lowest bound first, and each BFS stops at the first depth at which
     its switch would lose. Whenever the best eccentricity drops, one
     more BFS from the node farthest from the new best sharpens the
     bounds of the switches far from it. *)
  let sw = Network.switches net in
  let ns = Array.length sw in
  if ns = 0 then invalid_arg "Updown.route: no switches";
  let nn = Network.num_nodes net in
  let seen = Array.make nn 0 in (* seen.(v) = stamp: v reached by this BFS *)
  let stamp = ref 0 in
  let dist = Array.make nn 0 in
  let queue = Array.make nn 0 in
  let index = Array.make nn (-1) in (* node -> position in [sw] *)
  Array.iteri (fun j w -> index.(w) <- j) sw;
  let lo = Array.make ns 0 in
  let searched = Array.make ns false in
  (* BFS from [x] until it reaches depth [cut]; returns the depth
     reached and the number of nodes found. *)
  let bfs x ~cut =
    incr stamp;
    let st = !stamp in
    seen.(x) <- st;
    dist.(x) <- 0;
    queue.(0) <- x;
    let head = ref 0 and tail = ref 1 and ecc = ref 0 in
    while !head < !tail && !ecc < cut do
      let u = queue.(!head) in
      incr head;
      let adj = Network.out_channels net u in
      for k = 0 to Array.length adj - 1 do
        let v = Network.dst net adj.(k) in
        if seen.(v) <> st then begin
          seen.(v) <- st;
          dist.(v) <- dist.(u) + 1;
          if dist.(v) > !ecc then ecc := dist.(v);
          queue.(!tail) <- v;
          incr tail
        end
      done
    done;
    if !ecc < cut then
      for k = 0 to !tail - 1 do
        let w = queue.(k) in
        let j = index.(w) in
        if j >= 0 && not searched.(j) then
          lo.(j) <- max lo.(j) (max dist.(w) (!ecc - dist.(w)))
      done;
    (!ecc, !tail)
  in
  let best = ref (-1) and best_ecc = ref max_int in
  let loses i e = e > !best_ecc || (e = !best_ecc && i > !best) in
  (* Bounds only grow, so the lowest bound picked never decreases: the
     scan stops at the first candidate at the last pick's bound, and
     skips the prefix that is searched or already losing for good. *)
  let floor = ref 0 and start = ref 0 in
  let next () =
    while !start < ns && (searched.(!start) || loses !start lo.(!start)) do
      incr start
    done;
    let c = ref (-1) and j = ref !start in
    while !j < ns && not (!c >= 0 && lo.(!c) = !floor) do
      let i = !j in
      if (not searched.(i)) && (not (loses i lo.(i)))
         && (!c < 0 || lo.(i) < lo.(!c))
      then c := i;
      incr j
    done;
    if !c >= 0 then floor := lo.(!c);
    !c
  in
  let i = ref (next ()) in
  while !i >= 0 do
    let i' = !i in
    searched.(i') <- true;
    let cut =
      if !best < 0 then max_int
      else if i' < !best then !best_ecc + 1
      else !best_ecc
    in
    let ecc, found = bfs sw.(i') ~cut in
    if not (loses i' ecc) then begin
      let dropped = ecc < !best_ecc in
      best := i';
      best_ecc := ecc;
      if dropped then ignore (bfs queue.(found - 1) ~cut:max_int)
    end;
    i := next ()
  done;
  sw.(!best)

(* A channel u -> v points "down" iff it moves away from the root:
   level(v) > level(u), or equal levels and v's id is larger (the id
   tie-break makes the orientation acyclic). *)
let is_down net level c =
  let u = Network.src net c and v = Network.dst net c in
  level.(v) > level.(u) || (level.(v) = level.(u) && v > u)

let route ?root ?dests ?sources net =
  let root = match root with Some r -> r | None -> pick_root net in
  let dests = match dests with Some d -> d | None -> Network.terminals net in
  let sources =
    match sources with Some s -> s | None -> Network.terminals net
  in
  let nn = Network.num_nodes net in
  let level = Graph_algo.bfs_distances net root in
  let load = Array.make (Network.num_channels net) 0.0 in
  let next_channel =
    Array.map
      (fun dest ->
         (* dd.(n): length of the shortest all-down path n -> dest.
            Computed by BFS from dest over reversed down channels (the
            down orientation is acyclic, so plain BFS is exact). *)
         let dd = Array.make nn max_int in
         let queue = Queue.create () in
         dd.(dest) <- 0;
         Queue.add dest queue;
         while not (Queue.is_empty queue) do
           let u = Queue.take queue in
           let inc = Network.in_channels net u in
           for i = 0 to Array.length inc - 1 do
             let c = inc.(i) in
             let v = Network.src net c in
             if is_down net level c && dd.(v) = max_int then begin
               dd.(v) <- dd.(u) + 1;
               Queue.add v queue
             end
           done
         done;
         (* Chosen-path length: L(n) = dd(n) when finite (all-down
            continuations serve every predecessor), else
            1 + min over up channels (n, m) of L(m). The up orientation
            is acyclic too, so BFS layers over up channels from the set
            {dd finite} are exact. *)
         let l = Array.copy dd in
         (* Multi-source BFS is inexact for differing initial values;
            use a Dijkstra over unit weights seeded with every node that
            has an all-down continuation. *)
         let heap = Nue_structures.Fib_heap.create () in
         for v = 0 to nn - 1 do
           if dd.(v) < max_int then
             ignore
               (Nue_structures.Fib_heap.insert heap ~key:(float_of_int l.(v)) v)
         done;
         let handles = Hashtbl.create 64 in
         let rec drain () =
           match Nue_structures.Fib_heap.extract_min heap with
           | None -> ()
           | Some (u, d) ->
             if int_of_float d = l.(u) then begin
               let inc = Network.in_channels net u in
               for i = 0 to Array.length inc - 1 do
                 let c = inc.(i) in
                 let v = Network.src net c in
                 (* v -> u must be an up channel for v. *)
                 if not (is_down net level c) then begin
                   let cand = l.(u) + 1 in
                   if dd.(v) = max_int && cand < l.(v) then begin
                     l.(v) <- cand;
                     (match Hashtbl.find_opt handles v with
                      | Some h when Nue_structures.Fib_heap.mem h ->
                        Nue_structures.Fib_heap.decrease_key heap h
                          (float_of_int cand)
                      | _ ->
                        Hashtbl.replace handles v
                          (Nue_structures.Fib_heap.insert heap
                             ~key:(float_of_int cand) v))
                   end
                 end
               done
             end;
             drain ()
         in
         drain ();
         let nexts = Array.make nn (-1) in
         for node = 0 to nn - 1 do
           if node <> dest && l.(node) < max_int then begin
             let adj = Network.out_channels net node in
             let best = ref (-1) in
             for i = 0 to Array.length adj - 1 do
               let c = adj.(i) in
               let m = Network.dst net c in
               let ok =
                 if dd.(node) < max_int then
                   (* Must continue all-down. *)
                   is_down net level c
                   && dd.(m) < max_int
                   && dd.(m) = dd.(node) - 1
                 else
                   (* First hop climbs; continuation is m's own choice. *)
                   (not (is_down net level c)) && l.(m) = l.(node) - 1
               in
               if ok && (!best < 0 || load.(c) < load.(!best)) then best := c
             done;
             nexts.(node) <- !best
           end
         done;
         Balance.update_weights net ~weights:load ~nexts ~dest ~sources;
         nexts)
      dests
  in
  Table.make ~net ~algorithm:"updown" ~dests ~next_channel
    ~vl:Table.All_zero ~num_vls:1 ()
