module Network = Nue_netgraph.Network
module Table = Nue_routing.Table
module Obs = Nue_obs.Obs
module Span = Nue_obs.Span
module Histogram = Nue_metrics.Histogram

let c_flits = Obs.counter "sim.flit_transmits"
let c_delivered = Obs.counter "sim.packets_delivered"
let c_cycles = Obs.counter "sim.cycles"
let c_deadlocks = Obs.counter "sim.deadlocks"
let c_samples = Obs.counter "sim.telemetry_samples"
let c_dropped = Obs.counter "sim.packets_dropped"

type config = {
  buffer_flits : int;
  link_latency : int;
  flit_bytes : int;
  mtu_bytes : int;
  link_gbs : float;
  max_cycles : int;
  watchdog : int;
  injection_rate : float;
}

let default_config =
  { buffer_flits = 8;
    link_latency = 1;
    flit_bytes = 64;
    mtu_bytes = 2048;
    link_gbs = 4.0;
    max_cycles = 10_000_000;
    watchdog = 20_000;
    injection_rate = 1.0 }

type outcome = {
  delivered_packets : int;
  total_packets : int;
  delivered_bytes : int;
  dropped_packets : int;
  cycles : int;
  deadlock : bool;
  aggregate_gbs : float;
  avg_packet_latency : float;
  latency_p50 : float;
  latency_p95 : float;
  latency_p99 : float;
  latency_max : float;
}

(* {1 Telemetry} *)

type telemetry_config = {
  sample_every : int;
  max_samples : int;
  latency_bins : int;
}

let default_telemetry =
  { sample_every = 64; max_samples = 256; latency_bins = 32 }

type sample = {
  at_cycle : int;
  link_occupancy : int array;
  vl_occupancy : int array;
}

type telemetry = {
  sample_every : int;
  samples : sample array;
  dropped_samples : int;
  vls : int;
  unit_occupancy_sum : int array;
  unit_occupancy_peak : int array;
  occupancy_samples : int;
  link_transmits : int array;
  link_utilization : float array;
  peak_link_utilization : float;
  peak_link : int;
  latency : Histogram.t;
  deadlock_wait_cycle : (int * int) list;
}

(* {1 Live reconfiguration (table swaps)} *)

type swap = {
  at_cycle : int;
  table : Nue_routing.Table.t;
  staged : bool;
}

type swap_record = {
  swap_at : int;
  activated_at : int;
  in_flight_packets : int;
  in_flight_flits : int;
  drained_at : int;
}

(* A packet's route: one (channel, VL) unit id per hop, assigned from the
   table active at injection time ([route] is [||] until then), so a
   table swapped mid-run only steers packets injected afterwards —
   packets in flight finish on their old route, which is exactly the
   old/new coexistence the union-CDG transition check certifies safe. *)
type packet = {
  p_src : int;
  p_dst : int;
  bytes : int;
  flits : int;
  mutable route : int array;
  mutable injected : int;
  mutable inject_cycle : int;
  mutable generation : int;  (** table activations seen when injected *)
}

(* {2 Core layout}

   All per-flit state lives in flat int arrays, so a cycle allocates
   nothing. A unit is a (channel, VL) pair, [u = channel * vls + vl].

   - A flit is one int: packet id, then the index of the route hop it
     is on (the hop cursor), then the tail bit. Its next unit is
     [route.(hop + 1)], an O(1) lookup.
   - Each unit's receive FIFO is a ring of [buffer_flits] slots in one
     array. The wire is one ring of (arrival cycle, unit, flit) in
     transmit order, which is arrival order because the latency is
     constant. Credits bound FIFO + wire to [buffer_flits] per unit,
     so neither ring can overflow.
   - [want.(u)] is the unit the head flit of [u] asks for next (-1 when
     empty or at its last hop). Each output channel keeps a doubly
     linked list of the units whose head asks for it, so arbitration
     visits only those: the winner is the eligible requester nearest
     after the round-robin start, the unit a scan over all of the
     node's input units would reach first. Requests change only when a
     head changes: on a pop, and when a flit lands in an empty FIFO. *)

let run_impl ~(config : config) ~(telem : telemetry_config option)
    ~(swaps : swap list) (table : Table.t) ~traffic =
  if not (config.injection_rate > 0.0 && config.injection_rate <= 1.0) then
    invalid_arg "Sim.run: injection_rate must be in (0, 1]";
  if config.buffer_flits < 1 then
    invalid_arg "Sim.run: buffer_flits must be >= 1";
  if config.link_latency < 0 then
    invalid_arg "Sim.run: link_latency must be >= 0";
  if config.flit_bytes < 1 then
    invalid_arg "Sim.run: flit_bytes must be >= 1";
  if config.mtu_bytes < 1 then invalid_arg "Sim.run: mtu_bytes must be >= 1";
  if config.watchdog < 1 then invalid_arg "Sim.run: watchdog must be >= 1";
  let net = table.Table.net in
  let nc = Network.num_channels net in
  let nn = Network.num_nodes net in
  let swaps = List.sort (fun a b -> compare a.at_cycle b.at_cycle) swaps in
  List.iter
    (fun s ->
       if Network.num_channels s.table.Table.net <> nc
          || Network.num_nodes s.table.Table.net <> nn
       then
         invalid_arg
           "Sim.run_with_swaps: swap table is not on the same network")
    swaps;
  (* Buffer/credit state is sized for the largest VL range any of the
     tables (initial or swapped-in) may use. *)
  let vls =
    List.fold_left
      (fun acc (s : swap) -> max acc s.table.Table.num_vls)
      (max 1 table.Table.num_vls) swaps
  in
  let nu = nc * vls in
  let bf = config.buffer_flits in
  let latency = config.link_latency in
  let flits_of_bytes b = (b + config.flit_bytes - 1) / config.flit_bytes in
  (* The tick-stamped setup phase (packet splitting, queue and credit
     state construction) is a span of its own, so profiling separates
     its allocation from the cycle-stamped [sim.run] loop. *)
  let setup_span = Span.enter "sim.setup" in
  (* A route walked straight off a table's next-channel rows into
     [walk_ch]/[walk_vl], with [Table.path_with_vls]'s semantics: the
     hop count, or -1 when the table loops or dead-ends; raises
     Invalid_argument when the destination is not routed. *)
  let walk_ch = Array.make (nn + 1) 0 and walk_vl = Array.make (nn + 1) 0 in
  let walk (t : Table.t) ~src ~dst =
    let pos = Table.dest_position t dst in
    if pos < 0 then invalid_arg "Table.path: not a routed destination";
    let nexts = t.Table.next_channel.(pos) in
    let node = ref src and len = ref 0 in
    while !len >= 0 && !node <> dst do
      if !len > nn then len := -1
      else begin
        let c = nexts.(!node) in
        if c < 0 then len := -1
        else begin
          walk_ch.(!len) <- c;
          node := Network.dst t.Table.net c;
          incr len
        end
      end
    done;
    for h = 0 to !len - 1 do
      walk_vl.(h) <- Table.vl_of t ~src ~dest:dst ~hop:h ~channel:walk_ch.(h)
    done;
    !len
  in
  let check_vls len =
    for h = 0 to len - 1 do
      if walk_vl.(h) < 0 || walk_vl.(h) >= vls then
        invalid_arg "Sim.run: path VL outside the table's VL range"
    done
  in
  (* Split messages into MTU packets; the initial table must route every
     pair (same contract as the static entry points). *)
  let packets = ref [] in
  List.iter
    (fun { Traffic.src; dst; bytes } ->
       if not (Network.is_terminal net src && Network.is_terminal net dst)
       then invalid_arg "Sim.run: traffic endpoints must be terminals";
       let len = walk table ~src ~dst in
       if len < 0 then
         invalid_arg "Sim.run: unrouted source-destination pair";
       check_vls len;
       let remaining = ref bytes in
       while !remaining > 0 do
         let chunk = min !remaining config.mtu_bytes in
         remaining := !remaining - chunk;
         packets :=
           { p_src = src; p_dst = dst; bytes = chunk;
             flits = flits_of_bytes chunk; route = [||]; injected = 0;
             inject_cycle = -1; generation = 0 }
           :: !packets
       done)
    traffic;
  let packets = Array.of_list (List.rev !packets) in
  let total_packets = Array.length packets in
  (* Injection queues: each node's packet ids in order, and a cursor to
     the next one to inject. *)
  let inj_queue = Array.make nn [] in
  Array.iteri
    (fun pid p -> inj_queue.(p.p_src) <- pid :: inj_queue.(p.p_src))
    packets;
  let inj_queue =
    Array.map (fun l -> Array.of_list (List.rev l)) inj_queue
  in
  let inj_next = Array.make nn 0 in
  (* Flit encoding: [(pid lsl hop_shift) lor (hop lsl 1) lor tail]. Hop
     indices stay below [nn + 1]; [no_hop] marks a flit injected off its
     route's first channel, which has no next unit. *)
  let rec bits n = if n = 0 then 0 else 1 + bits (n lsr 1) in
  let hop_shift = 1 + bits (nn + 1) in
  let no_hop = (1 lsl (hop_shift - 1)) - 1 in
  (* Receive FIFO, sender-side credit counter, wormhole owner and head
     request, one each per unit. *)
  let fifo = Array.make (nu * bf) 0 in
  let fifo_head = Array.make nu 0 in
  let fifo_len = Array.make nu 0 in
  let credits = Array.make nu bf in
  let owner = Array.make nu (-1) in
  let want = Array.make nu (-1) in
  let req_first = Array.make nc (-1) in
  let req_next = Array.make nu (-1) in
  let req_prev = Array.make nu (-1) in
  (* Buffered flits per node: lets idle links be skipped. *)
  let node_flits = Array.make nn 0 in
  (* Network lookups the cycle loop makes, as local arrays: each unit's
     channel, each channel's source, where a channel lands (its switch,
     or -1 when it delivers to a terminal), each node's input-unit
     count, and each unit's position among its landing node's input
     units — the order round-robin arbitration rotates through. *)
  let unit_ch = Array.init nu (fun u -> u / vls) in
  let ch_src = Array.init nc (Network.src net) in
  let land_node =
    Array.init nc (fun c ->
        let d = Network.dst net c in
        if Network.is_terminal net d then -1 else d)
  in
  let node_units = Array.make nn 0 in
  let unit_pos = Array.make nu 0 in
  for n = 0 to nn - 1 do
    let inc = Network.in_channels net n in
    node_units.(n) <- Array.length inc * vls;
    Array.iteri
      (fun i ci ->
         for vl = 0 to vls - 1 do
           unit_pos.((ci * vls) + vl) <- (i * vls) + vl
         done)
      inc
  done;
  (* A channel sends at most one flit per cycle, which stays on the wire
     for [latency + 1] cycles, and at most [vls * bf] unacknowledged
     flits: the wire never holds more than either bound. *)
  let wire_cap = nc * (min latency ((vls * bf) - 1) + 1) in
  let wire_at = Array.make wire_cap 0 in
  let wire_unit = Array.make wire_cap 0 in
  let wire_flit = Array.make wire_cap 0 in
  let wire_head = ref 0 in
  let wire_len = ref 0 in
  let delivered_packets = ref 0 in
  let delivered_bytes = ref 0 in
  let dropped_packets = ref 0 in
  let cycle = ref 0 in
  let last_movement = ref 0 in
  (* Live-reconfiguration state: the active table, how many activations
     have happened (stamped on packets as their generation), and how
     many injected packets are still undelivered. *)
  let active = ref table in
  let activations = ref 0 in
  let in_flight = ref 0 in
  let swap_arr = Array.of_list swaps in
  let nswaps = Array.length swap_arr in
  let records =
    Array.init nswaps (fun i ->
        { swap_at = swap_arr.(i).at_cycle; activated_at = -1;
          in_flight_packets = 0; in_flight_flits = 0; drained_at = -1 })
  in
  let pending = Array.make nswaps 0 in
  let next_swap = ref 0 in
  let draining = ref false in
  let moved = ref false in
  let latency_sum = ref 0.0 in
  let latencies = ref [] in
  let latency_max = ref 0.0 in
  (* Flits moved per channel, for link utilization (each link carries at
     most one flit per cycle, so transmits / cycles is in [0, 1]). *)
  let link_tx = Array.make nc 0 in
  (* Telemetry ring buffer: overwrites the oldest sample past
     [max_samples], so a long run keeps its most recent window. *)
  let sample_every, ring =
    match telem with
    | None -> (0, [||])
    | Some t -> (t.sample_every, Array.make (max 1 t.max_samples) None)
  in
  let ring_written = ref 0 in
  (* Per-(channel, VL) occupancy accumulators: unlike the ring, these
     cover every sample ever taken, so congestion attribution sees the
     whole run even when the ring wrapped. *)
  let unit_occ_sum = if telem = None then [||] else Array.make nu 0 in
  let unit_occ_peak = if telem = None then [||] else Array.make nu 0 in
  (* Injection throttling: a per-node token bucket capped at one token,
     refilled by [injection_rate] tokens per cycle; each injected flit
     spends one. At rate 1.0 the gate is compiled out, keeping the
     full-load path byte-identical to an unthrottled run. *)
  let throttled = config.injection_rate < 1.0 in
  let tokens = if throttled then Array.make nn 0.0 else [||] in
  Span.exit setup_span;
  (* Deterministic timeline for span events: while the simulator runs,
     span stamps are simulation cycles, offset so they extend the tick
     timeline monotonically. *)
  let spans_on = Span.enabled () in
  let span_base = if spans_on then Span.now () + 1 else 0 in
  if spans_on then Span.set_clock (fun () -> span_base + !cycle);
  let sim_span =
    if spans_on then
      Span.enter "sim.run"
        ~args:
          [ ("packets", Span.Int total_packets);
            ("channels", Span.Int nc);
            ("vls", Span.Int vls) ]
    else Span.null_handle
  in
  let take_sample () =
    let link_occupancy = Array.make nc 0 in
    let vl_occupancy = Array.make vls 0 in
    for c = 0 to nc - 1 do
      for vl = 0 to vls - 1 do
        let u = (c * vls) + vl in
        let q = fifo_len.(u) in
        link_occupancy.(c) <- link_occupancy.(c) + q;
        vl_occupancy.(vl) <- vl_occupancy.(vl) + q;
        unit_occ_sum.(u) <- unit_occ_sum.(u) + q;
        if q > unit_occ_peak.(u) then unit_occ_peak.(u) <- q
      done
    done;
    ring.(!ring_written mod Array.length ring) <-
      Some { at_cycle = !cycle; link_occupancy; vl_occupancy };
    ring_written := !ring_written + 1;
    if spans_on then begin
      let total = Array.fold_left ( + ) 0 vl_occupancy in
      let peak = Array.fold_left max 0 link_occupancy in
      Span.counter "sim.buffered_flits" [ ("total", Span.Int total) ];
      Span.counter "sim.peak_link_occupancy" [ ("flits", Span.Int peak) ];
      Span.counter "sim.vl_occupancy"
        (Array.to_list
           (Array.mapi
              (fun vl q -> ("vl" ^ string_of_int vl, Span.Int q))
              vl_occupancy))
    end
  in
  (* {2 Swap bookkeeping} *)
  let buffered_flits_total () = Array.fold_left ( + ) !wire_len fifo_len in
  (* Stamp what the swap disrupts at request time: the packets (and
     their flits) already committed to the pre-swap table. *)
  let request_swap k =
    records.(k) <-
      { records.(k) with
        in_flight_packets = !in_flight;
        in_flight_flits = buffered_flits_total () };
    pending.(k) <- !in_flight;
    if !in_flight = 0 then
      records.(k) <- { records.(k) with drained_at = !cycle }
  in
  let activate_swap k =
    active := swap_arr.(k).table;
    incr activations;
    records.(k) <- { records.(k) with activated_at = !cycle };
    if spans_on then
      Span.instant "sim.swap"
        ~args:
          [ ("index", Span.Int k);
            ("staged", Span.Bool swap_arr.(k).staged);
            ("in_flight", Span.Int records.(k).in_flight_packets) ]
  in
  (* Activate due swaps: a direct swap takes effect at its cycle; a
     staged one first drains the fabric (injection pauses, in-flight
     packets finish on their old routes), then activates — the drain is
     the conservative fallback for transitions the union-CDG check could
     not prove deadlock-free. *)
  let process_swaps () =
    if !next_swap < nswaps then begin
      if !draining then begin
        if !in_flight = 0 then begin
          activate_swap !next_swap;
          incr next_swap;
          draining := false
        end
      end
      else begin
        let s = swap_arr.(!next_swap) in
        if !cycle >= s.at_cycle then begin
          request_swap !next_swap;
          if s.staged then draining := true
          else begin
            activate_swap !next_swap;
            incr next_swap
          end
        end
      end
    end
  in
  (* A delivered packet may complete the drain window of any swap that
     was requested while it was in flight. *)
  let note_delivery p =
    let hi = if !draining then !next_swap else !next_swap - 1 in
    for k = 0 to min hi (nswaps - 1) do
      if records.(k).drained_at < 0 && p.generation <= k then begin
        pending.(k) <- pending.(k) - 1;
        if pending.(k) = 0 then
          records.(k) <- { records.(k) with drained_at = !cycle }
      end
    done
  in
  (* {2 Heads, wire and FIFOs} *)
  (* Recompute [want.(u)] after its head changed, and file the new
     head's request with the channel it asks for. *)
  let refresh_want u =
    if fifo_len.(u) = 0 then want.(u) <- -1
    else begin
      let f = fifo.((u * bf) + fifo_head.(u)) in
      let route = packets.(f lsr hop_shift).route in
      let h = ((f lsr 1) land no_hop) + 1 in
      let w = if h < Array.length route then route.(h) else -1 in
      want.(u) <- w;
      if w >= 0 then begin
        let c = unit_ch.(w) in
        if ch_src.(c) = land_node.(unit_ch.(u)) then begin
          let first = req_first.(c) in
          req_next.(u) <- first;
          req_prev.(u) <- -1;
          if first >= 0 then req_prev.(first) <- u;
          req_first.(c) <- u
        end
      end
    end
  in
  (* Whether packet [pid] may send into unit [u]: the lane is free or
     already its own (wormhole), and a credit is left. *)
  let can_send u pid =
    let own = owner.(u) in
    (own = -1 || own = pid) && credits.(u) > 0
  in
  let transmit u pid flit =
    let c = unit_ch.(u) in
    link_tx.(c) <- link_tx.(c) + 1;
    credits.(u) <- credits.(u) - 1;
    owner.(u) <- (if flit land 1 = 1 then -1 else pid);
    assert (!wire_len < wire_cap);
    let slot = !wire_head + !wire_len in
    let slot = if slot >= wire_cap then slot - wire_cap else slot in
    wire_at.(slot) <- !cycle + latency;
    wire_unit.(slot) <- u;
    wire_flit.(slot) <- flit;
    incr wire_len;
    moved := true
  in
  (* Assign a packet its route from the active table on first contact.
     A pair the active table no longer routes (transient churn states)
     is dropped rather than left to clog the injection queue. *)
  let route_packet p =
    Array.length p.route > 0
    ||
    match walk !active ~src:p.p_src ~dst:p.p_dst with
    | exception Invalid_argument _ -> false
    | len ->
      check_vls len;
      len > 0
      && begin
        let route = Array.make len 0 in
        for h = 0 to len - 1 do
          route.(h) <- (walk_ch.(h) * vls) + walk_vl.(h)
        done;
        p.route <- route;
        true
      end
  in
  let try_inject c u_node =
    let q = inj_next.(u_node) in
    q < Array.length inj_queue.(u_node)
    && (not throttled || tokens.(u_node) >= 1.0)
    && begin
      let pid = inj_queue.(u_node).(q) in
      let p = packets.(pid) in
      (* A drain pauses new packets only: one already partially injected
         must finish, or its in-network head would wait forever for a
         tail the drain is holding back. *)
      if !draining && p.injected = 0 then false
      else if p.injected = 0 && not (route_packet p) then begin
        inj_next.(u_node) <- q + 1;
        incr dropped_packets;
        if spans_on then
          Span.counter "sim.packets_dropped"
            [ ("dropped", Span.Int !dropped_packets) ];
        false
      end
      else begin
        (* [c] is the terminal's one link; the route's first VL picks
           the lane. *)
        let first = p.route.(0) in
        let u = (c * vls) + (first mod vls) in
        if can_send u pid then begin
          if p.inject_cycle < 0 then begin
            p.inject_cycle <- !cycle;
            p.generation <- !activations;
            incr in_flight
          end;
          p.injected <- p.injected + 1;
          let tail = p.injected = p.flits in
          let hop = if unit_ch.(first) = c then 0 else no_hop in
          transmit u pid
            ((pid lsl hop_shift) lor (hop lsl 1) lor Bool.to_int tail);
          if throttled then tokens.(u_node) <- tokens.(u_node) -. 1.0;
          if tail then inj_next.(u_node) <- q + 1;
          true
        end
        else false
      end
    end
  in
  (* Pop [u]'s head flit at [u_node] onto the unit it wants, on
     channel [c]. *)
  let forward u c u_node =
    let w = want.(u) in
    let head = fifo_head.(u) in
    let f = fifo.((u * bf) + head) in
    fifo_head.(u) <- (if head + 1 = bf then 0 else head + 1);
    fifo_len.(u) <- fifo_len.(u) - 1;
    node_flits.(u_node) <- node_flits.(u_node) - 1;
    credits.(u) <- credits.(u) + 1;
    let prev = req_prev.(u) and next = req_next.(u) in
    if prev >= 0 then req_next.(prev) <- next else req_first.(c) <- next;
    if next >= 0 then req_prev.(next) <- prev;
    refresh_want u;
    (* One hop further along the route: hop field + 1. *)
    transmit w (f lsr hop_shift) (f + 2)
  in
  let try_forward c u_node =
    (* Round-robin over the node's input units, rotating with the
       cycle count so no unit is structurally starved: the winner is
       the eligible requester the fewest positions past [start]. *)
    req_first.(c) >= 0
    && begin
      let n_units = node_units.(u_node) in
      let start = (!cycle + c) mod n_units in
      let hit = ref (-1) and hit_d = ref n_units in
      let u = ref req_first.(c) in
      while !u >= 0 do
        let d = unit_pos.(!u) - start in
        let d = if d < 0 then d + n_units else d in
        if d < !hit_d then begin
          let pid = fifo.((!u * bf) + fifo_head.(!u)) lsr hop_shift in
          if can_send want.(!u) pid then begin
            hit := !u;
            hit_d := d
          end
        end;
        u := req_next.(!u)
      done;
      !hit >= 0 && (forward !hit c u_node; true)
    end
  in
  let arbitrate_channel c =
    let u_node = ch_src.(c) in
    if node_flits.(u_node) > 0
       || inj_next.(u_node) < Array.length inj_queue.(u_node)
    then begin
      (* Alternate injection/through priority so neither starves. *)
      if !cycle land 1 = 0 then begin
        if not (try_inject c u_node) then ignore (try_forward c u_node)
      end
      else if not (try_forward c u_node) then ignore (try_inject c u_node)
    end
  in
  let deliver flit =
    if flit land 1 = 1 then begin
      let p = packets.(flit lsr hop_shift) in
      incr delivered_packets;
      delivered_bytes := !delivered_bytes + p.bytes;
      decr in_flight;
      note_delivery p;
      let lat = float_of_int (!cycle - p.inject_cycle) in
      latency_sum := !latency_sum +. lat;
      if lat > !latency_max then latency_max := lat;
      latencies := lat :: !latencies
    end
  in
  (* Land flits whose wire time elapsed. *)
  let land_arrivals () =
    while !wire_len > 0 && wire_at.(!wire_head) <= !cycle do
      let s = !wire_head in
      let u = wire_unit.(s) and f = wire_flit.(s) in
      wire_head := if s + 1 = wire_cap then 0 else s + 1;
      decr wire_len;
      let node = land_node.(unit_ch.(u)) in
      if node < 0 then begin
        credits.(u) <- credits.(u) + 1;
        deliver f
      end
      else begin
        let len = fifo_len.(u) in
        assert (len < bf);
        let tail = fifo_head.(u) + len in
        fifo.((u * bf) + (if tail >= bf then tail - bf else tail)) <- f;
        fifo_len.(u) <- len + 1;
        node_flits.(node) <- node_flits.(node) + 1;
        if len = 0 then refresh_want u
      end
    done
  in
  (* Deadlock attribution: the wait-for graph over units, which [want]
     already holds — a unit whose head flit still has hops to go waits
     for its next-hop unit, and the deadlocked units form a cycle in
     that graph (classic wormhole circular wait). Returns the cycle,
     oldest-first, or [] if the stall is not a circular wait (e.g. an
     injection livelock). *)
  let find_wait_cycle () =
    (* 0 = unvisited, 1 = on the current walk, 2 = finished. *)
    let state = Array.make nu 0 in
    let cycle_units = ref [] in
    let u = ref 0 in
    while !cycle_units = [] && !u < nu do
      if state.(!u) = 0 then begin
        let path = ref [] in
        let v = ref !u in
        while !v >= 0 && state.(!v) = 0 do
          state.(!v) <- 1;
          path := !v :: !path;
          v := want.(!v)
        done;
        if !v >= 0 && state.(!v) = 1 then begin
          (* Walked back into the current path: cut the cycle out. *)
          let rec collect acc = function
            | [] -> acc
            | x :: rest ->
              if x = !v then x :: acc else collect (x :: acc) rest
          in
          cycle_units := collect [] !path
        end;
        List.iter (fun x -> state.(x) <- 2) !path
      end;
      incr u
    done;
    List.map (fun unit -> (unit / vls, unit mod vls)) !cycle_units
  in
  let deadlocked = ref false in
  while
    !delivered_packets + !dropped_packets < total_packets
    && (not !deadlocked)
    && !cycle < config.max_cycles
  do
    moved := false;
    if throttled then
      for n = 0 to nn - 1 do
        let t = tokens.(n) +. config.injection_rate in
        tokens.(n) <- (if t > 1.0 then 1.0 else t)
      done;
    process_swaps ();
    for c = 0 to nc - 1 do
      arbitrate_channel c
    done;
    land_arrivals ();
    if sample_every > 0 && !cycle mod sample_every = 0 then take_sample ();
    if !moved then last_movement := !cycle;
    if !cycle - !last_movement > config.watchdog then deadlocked := true;
    incr cycle
  done;
  let wait_cycle = if !deadlocked then find_wait_cycle () else [] in
  let cycles = max 1 !cycle in
  (* Counters are tallied locally and published once per run. *)
  Obs.add c_flits (Array.fold_left ( + ) 0 link_tx);
  Obs.add c_delivered !delivered_packets;
  Obs.add c_dropped !dropped_packets;
  Obs.add c_samples !ring_written;
  Obs.add c_cycles cycles;
  if !deadlocked then begin
    Obs.incr c_deadlocks;
    if spans_on then
      Span.instant "sim.deadlock"
        ~args:
          (( "last_movement", Span.Int !last_movement )
           :: ("blocked_units", Span.Int (List.length wait_cycle))
           :: List.concat_map
                (fun (c, vl) ->
                   [ ("channel", Span.Int c); ("vl", Span.Int vl) ])
                wait_cycle)
  end;
  if spans_on then begin
    Span.exit sim_span
      ~args:
        [ ("cycles", Span.Int cycles);
          ("delivered", Span.Int !delivered_packets);
          ("dropped", Span.Int !dropped_packets);
          ("deadlock", Span.Bool !deadlocked) ];
    Span.use_tick_clock ()
  end;
  (* One flit per cycle per link at [link_gbs] implies the cycle time. *)
  let seconds =
    float_of_int cycles *. float_of_int config.flit_bytes
    /. (config.link_gbs *. 1e9)
  in
  (* Packet latencies all flow through one histogram, so every consumer
     (sim outcome, telemetry, bench) reports identical percentiles. *)
  let bins =
    match telem with Some t -> t.latency_bins | None -> default_telemetry.latency_bins
  in
  let hist = Histogram.of_samples ~bins !latencies in
  let pct q = if !latencies = [] then 0.0 else Histogram.percentile hist q in
  let outcome =
    { delivered_packets = !delivered_packets;
      total_packets;
      delivered_bytes = !delivered_bytes;
      dropped_packets = !dropped_packets;
      cycles;
      deadlock = !deadlocked;
      aggregate_gbs = float_of_int !delivered_bytes /. 1e9 /. seconds;
      avg_packet_latency =
        (if !delivered_packets = 0 then 0.0
         else !latency_sum /. float_of_int !delivered_packets);
      latency_p50 = pct 0.50;
      latency_p95 = pct 0.95;
      latency_p99 = pct 0.99;
      latency_max = !latency_max }
  in
  let telemetry =
    match telem with
    | None -> None
    | Some t ->
      let nslots = Array.length ring in
      let kept = min !ring_written nslots in
      let oldest = !ring_written - kept in
      let samples =
        Array.init kept (fun i ->
            match ring.((oldest + i) mod nslots) with
            | Some s -> s
            | None -> assert false)
      in
      let link_utilization =
        Array.map (fun tx -> float_of_int tx /. float_of_int cycles) link_tx
      in
      let peak_link = ref 0 in
      Array.iteri
        (fun c u ->
           if u > link_utilization.(!peak_link) then peak_link := c)
        link_utilization;
      Some
        { sample_every = t.sample_every;
          samples;
          dropped_samples = !ring_written - kept;
          vls;
          unit_occupancy_sum = unit_occ_sum;
          unit_occupancy_peak = unit_occ_peak;
          occupancy_samples = !ring_written;
          link_transmits = link_tx;
          link_utilization;
          peak_link_utilization = link_utilization.(!peak_link);
          peak_link = !peak_link;
          latency = hist;
          deadlock_wait_cycle = wait_cycle }
  in
  (outcome, telemetry, Array.to_list records)

let run ?(config = default_config) table ~traffic =
  let o, _, _ = run_impl ~config ~telem:None ~swaps:[] table ~traffic in
  o

let run_with_telemetry ?(config = default_config)
    ?(telemetry = default_telemetry) table ~traffic =
  if telemetry.sample_every < 1 then
    invalid_arg "Sim.run_with_telemetry: sample_every must be >= 1";
  match run_impl ~config ~telem:(Some telemetry) ~swaps:[] table ~traffic with
  | o, Some t, _ -> (o, t)
  | _, None, _ -> assert false

let run_with_swaps ?(config = default_config)
    ?telemetry:(telem : telemetry_config option) table ~swaps ~traffic =
  (match telem with
   | Some t when t.sample_every < 1 ->
     invalid_arg "Sim.run_with_swaps: sample_every must be >= 1"
   | _ -> ());
  run_impl ~config ~telem ~swaps table ~traffic
