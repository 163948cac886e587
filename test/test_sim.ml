(* Tests for the flit-level simulator: delivery, conservation, credit
   discipline, deadlock detection and throughput sanity. *)

module Network = Nue_netgraph.Network
module Table = Nue_routing.Table
module Minhop = Nue_routing.Minhop
module Sim = Nue_sim.Sim
module Traffic = Nue_sim.Traffic
module Nue = Nue_core.Nue
module Prng = Nue_structures.Prng
module Obs = Nue_obs.Obs
module Span = Nue_obs.Span

let test_case = Alcotest.test_case

let two_terminals () =
  (* Two terminals on one switch: a single message crosses two links. *)
  Helpers.single_switch_pair ()

let single_message_delivery () =
  let net = two_terminals () in
  let table = Minhop.route net in
  let terms = Network.terminals net in
  let out =
    Sim.run table ~traffic:[ { Traffic.src = terms.(0); dst = terms.(1); bytes = 512 } ]
  in
  Alcotest.(check int) "one packet" 1 out.Sim.total_packets;
  Alcotest.(check int) "delivered" 1 out.Sim.delivered_packets;
  Alcotest.(check int) "bytes" 512 out.Sim.delivered_bytes;
  Alcotest.(check bool) "no deadlock" false out.Sim.deadlock;
  (* 8 flits over 2 hops with latency 1: the tail lands well under 30
     cycles. *)
  Alcotest.(check bool) "fast" true (out.Sim.cycles < 30)

let message_split_into_mtu_packets () =
  let net = two_terminals () in
  let table = Minhop.route net in
  let terms = Network.terminals net in
  let out =
    Sim.run table
      ~traffic:[ { Traffic.src = terms.(0); dst = terms.(1); bytes = 5000 } ]
  in
  (* 5000 B over a 2048 B MTU = 3 packets. *)
  Alcotest.(check int) "3 packets" 3 out.Sim.total_packets;
  Alcotest.(check int) "all delivered" 3 out.Sim.delivered_packets;
  Alcotest.(check int) "bytes conserved" 5000 out.Sim.delivered_bytes

let all_to_all_completes () =
  let t = Helpers.small_torus () in
  let net = t.Nue_netgraph.Topology.net in
  let table = Nue.route ~vcs:2 net in
  let traffic = Traffic.all_to_all_shift net ~message_bytes:256 in
  let out = Sim.run table ~traffic in
  Alcotest.(check int) "all delivered" out.Sim.total_packets
    out.Sim.delivered_packets;
  Alcotest.(check bool) "no deadlock" false out.Sim.deadlock;
  Alcotest.(check bool) "positive throughput" true (out.Sim.aggregate_gbs > 0.0)

let link_rate_bound () =
  (* A single sender cannot exceed one flit per cycle: aggregate <= one
     link's rate. *)
  let net = two_terminals () in
  let table = Minhop.route net in
  let terms = Network.terminals net in
  let out =
    Sim.run table
      ~traffic:[ { Traffic.src = terms.(0); dst = terms.(1); bytes = 64 * 1024 } ]
  in
  Alcotest.(check bool) "bounded by link rate" true
    (out.Sim.aggregate_gbs <= 4.0 +. 1e-6)

(* Clockwise routing on a 4-switch ring: every switch forwards to its
   clockwise neighbour, so the channel dependency graph is one cycle. *)
let clockwise_ring4 () =
  let net = Helpers.ring ~terminals:1 4 in
  let terms = Network.terminals net in
  let nn = Network.num_nodes net in
  let next_channel =
    Array.map
      (fun dest ->
         let dw = Network.terminal_attachment net dest in
         let nexts = Array.make nn (-1) in
         for i = 0 to 3 do
           if i = dw then
             nexts.(i) <- Option.get (Network.find_channel net i dest)
           else
             nexts.(i) <-
               Option.get (Network.find_channel net i ((i + 1) mod 4))
         done;
         Array.iter
           (fun t ->
              if t <> dest then nexts.(t) <- (Network.out_channels net t).(0))
           terms;
         nexts)
      terms
  in
  Table.make ~net ~algorithm:"clockwise" ~dests:terms ~next_channel
    ~vl:Table.All_zero ~num_vls:1 ()

let deadlock_detected_on_cyclic_routing () =
  (* Clockwise ring routing with heavy traffic and tiny buffers: the
     classic ring deadlock. The watchdog must fire. *)
  let table = clockwise_ring4 () in
  let net = table.Table.net in
  Alcotest.(check bool) "routing is deadlock-prone" false
    (Nue_routing.Verify.deadlock_free table);
  let traffic = Traffic.all_to_all_shift net ~message_bytes:8192 in
  let config =
    { Sim.default_config with buffer_flits = 2; watchdog = 5_000 }
  in
  let out = Sim.run ~config table ~traffic in
  Alcotest.(check bool) "deadlock detected" true out.Sim.deadlock;
  Alcotest.(check bool) "not everything delivered" true
    (out.Sim.delivered_packets < out.Sim.total_packets)

let nue_survives_where_cyclic_deadlocks () =
  (* Same network, same load, same buffers — Nue's tables drain. *)
  let net = Helpers.ring ~terminals:1 4 in
  let table = Nue.route ~vcs:1 net in
  let traffic = Traffic.all_to_all_shift net ~message_bytes:8192 in
  let config =
    { Sim.default_config with buffer_flits = 2; watchdog = 5_000 }
  in
  let out = Sim.run ~config table ~traffic in
  Alcotest.(check bool) "no deadlock" false out.Sim.deadlock;
  Alcotest.(check int) "all delivered" out.Sim.total_packets
    out.Sim.delivered_packets

let traffic_all_to_all_counts () =
  let net = (Helpers.small_torus ()).Nue_netgraph.Topology.net in
  let t = Network.num_terminals net in
  let traffic = Traffic.all_to_all_shift net ~message_bytes:128 in
  Alcotest.(check int) "T(T-1) messages" (t * (t - 1)) (List.length traffic);
  List.iter
    (fun { Traffic.src; dst; _ } ->
       if src = dst then Alcotest.fail "self message")
    traffic

let traffic_uniform_random_counts () =
  let net = (Helpers.small_torus ()).Nue_netgraph.Topology.net in
  let prng = Prng.create 4 in
  let traffic =
    Traffic.uniform_random prng net ~messages_per_terminal:5 ~message_bytes:64
  in
  Alcotest.(check int) "count" (5 * Network.num_terminals net)
    (List.length traffic)

let traffic_permutation_bijective () =
  let net = (Helpers.small_torus ()).Nue_netgraph.Topology.net in
  let prng = Prng.create 4 in
  let traffic = Traffic.permutation prng net ~message_bytes:64 in
  let seen_src = Hashtbl.create 64 in
  List.iter
    (fun { Traffic.src; dst; _ } ->
       if src = dst then Alcotest.fail "fixed point";
       if Hashtbl.mem seen_src src then Alcotest.fail "duplicate source";
       Hashtbl.add seen_src src ())
    traffic

let rejects_non_terminal_endpoints () =
  let net = Helpers.ring5 () in
  let table = Minhop.route net in
  Alcotest.(check bool) "switch endpoint rejected" true
    (match
       Sim.run table ~traffic:[ { Traffic.src = 0; dst = 1; bytes = 64 } ]
     with
     | exception Invalid_argument _ -> true
     | _ -> false)

let more_vcs_do_not_hurt_much () =
  (* Sanity on the Fig. 1/10 trend at miniature scale: Nue's simulated
     all-to-all throughput at k=4 is at least ~60% of its k=1 value
     (usually it is better; small instances are noisy). *)
  let t = Helpers.small_torus () in
  let net = t.Nue_netgraph.Topology.net in
  let traffic = Traffic.all_to_all_shift net ~message_bytes:512 in
  let run vcs =
    let table = Nue.route ~vcs net in
    (Sim.run table ~traffic).Sim.aggregate_gbs
  in
  let t1 = run 1 and t4 = run 4 in
  Alcotest.(check bool) "k=4 not catastrophically worse" true
    (t4 >= 0.6 *. t1);
  Alcotest.(check bool) "both positive" true (t1 > 0.0 && t4 > 0.0)

(* {1 Telemetry} *)

let telemetry_matches_plain_run () =
  (* The sink is observation-only: the outcome with telemetry attached
     is identical to the plain run's. *)
  let t = Helpers.small_torus () in
  let net = t.Nue_netgraph.Topology.net in
  let table = Nue.route ~vcs:2 net in
  let traffic = Traffic.all_to_all_shift net ~message_bytes:256 in
  let plain = Sim.run table ~traffic in
  let out, _ = Sim.run_with_telemetry table ~traffic in
  Alcotest.(check int) "cycles" plain.Sim.cycles out.Sim.cycles;
  Alcotest.(check int) "delivered" plain.Sim.delivered_packets
    out.Sim.delivered_packets;
  Alcotest.(check (float 1e-9)) "p50" plain.Sim.latency_p50 out.Sim.latency_p50;
  Alcotest.(check (float 1e-9)) "p95" plain.Sim.latency_p95 out.Sim.latency_p95;
  Alcotest.(check (float 1e-9)) "p99" plain.Sim.latency_p99 out.Sim.latency_p99;
  Alcotest.(check (float 1e-9)) "max" plain.Sim.latency_max out.Sim.latency_max

let telemetry_sampling_and_utilization () =
  let t = Helpers.small_torus () in
  let net = t.Nue_netgraph.Topology.net in
  let table = Nue.route ~vcs:2 net in
  let traffic = Traffic.all_to_all_shift net ~message_bytes:256 in
  let telemetry = { Sim.sample_every = 4; max_samples = 8; latency_bins = 16 } in
  let out, tm = Sim.run_with_telemetry ~telemetry table ~traffic in
  Alcotest.(check int) "cadence recorded" 4 tm.Sim.sample_every;
  Alcotest.(check bool) "ring filled" true (Array.length tm.Sim.samples <= 8);
  (* The run is much longer than 8 * 4 cycles, so the ring overflowed
     and only the most recent samples survive, in order. *)
  Alcotest.(check bool) "drops counted" true (tm.Sim.dropped_samples > 0);
  let rec chronological last = function
    | [] -> ()
    | (s : Sim.sample) :: rest ->
      Alcotest.(check bool) "samples in cycle order" true (s.Sim.at_cycle > last);
      chronological s.Sim.at_cycle rest
  in
  chronological (-1) (Array.to_list tm.Sim.samples);
  Array.iter
    (fun (s : Sim.sample) ->
       Alcotest.(check int) "per-channel occupancy vector"
         (Network.num_channels net)
         (Array.length s.Sim.link_occupancy);
       Array.iter
         (fun o -> Alcotest.(check bool) "occupancy >= 0" true (o >= 0))
         s.Sim.link_occupancy)
    tm.Sim.samples;
  (* Utilization: transmits / cycles, bounded by the link rate. *)
  Alcotest.(check int) "per-channel utilization vector"
    (Network.num_channels net)
    (Array.length tm.Sim.link_utilization);
  Array.iteri
    (fun c u ->
       Alcotest.(check bool) "utilization in [0,1]" true (u >= 0.0 && u <= 1.0);
       Alcotest.(check (float 1e-9)) "utilization = transmits/cycles"
         (float_of_int tm.Sim.link_transmits.(c)
          /. float_of_int out.Sim.cycles)
         u)
    tm.Sim.link_utilization;
  let peak = Array.fold_left max 0.0 tm.Sim.link_utilization in
  Alcotest.(check (float 1e-9)) "peak is the max" peak
    tm.Sim.peak_link_utilization;
  Alcotest.(check (float 1e-9)) "peak_link achieves it"
    tm.Sim.link_utilization.(tm.Sim.peak_link)
    tm.Sim.peak_link_utilization;
  (* Latency histogram covers every delivered packet, and the
     percentile chain is ordered. *)
  let module H = Nue_metrics.Histogram in
  Alcotest.(check int) "histogram counts deliveries"
    out.Sim.delivered_packets (H.count tm.Sim.latency);
  let p50 = H.percentile tm.Sim.latency 0.50 in
  let p95 = H.percentile tm.Sim.latency 0.95 in
  let p99 = H.percentile tm.Sim.latency 0.99 in
  Alcotest.(check bool) "p50 <= p95 <= p99" true (p50 <= p95 && p95 <= p99);
  Alcotest.(check (list (pair int int))) "no deadlock, no wait cycle" []
    tm.Sim.deadlock_wait_cycle;
  Alcotest.(check bool) "rejects sample_every < 1" true
    (match
       Sim.run_with_telemetry
         ~telemetry:{ telemetry with Sim.sample_every = 0 }
         table ~traffic
     with
     | exception Invalid_argument _ -> true
     | _ -> false)

let deadlock_attributed_to_wait_cycle () =
  (* The clockwise-ring deadlock again, now asking the sink to name the
     circular wait: the blocked units must form a nonempty cycle of
     distinct (channel, VL) pairs over real channels. *)
  let table = clockwise_ring4 () in
  let net = table.Table.net in
  let traffic = Traffic.all_to_all_shift net ~message_bytes:8192 in
  let config =
    { Sim.default_config with buffer_flits = 2; watchdog = 5_000 }
  in
  let out, tm = Sim.run_with_telemetry ~config table ~traffic in
  Alcotest.(check bool) "deadlock detected" true out.Sim.deadlock;
  let cycle = tm.Sim.deadlock_wait_cycle in
  Alcotest.(check bool) "wait cycle found" true (List.length cycle >= 2);
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (c, vl) ->
       Alcotest.(check bool) "real channel" true
         (c >= 0 && c < Network.num_channels net);
       Alcotest.(check int) "single-VL table blocks on VL 0" 0 vl;
       if Hashtbl.mem seen (c, vl) then Alcotest.fail "unit repeated";
       Hashtbl.add seen (c, vl) ())
    cycle;
  (* All four ring links participate in the classic ring deadlock. *)
  Alcotest.(check int) "all ring units blocked" 4 (List.length cycle)

(* {1 Goldens}

   One MD5 per seeded simulation, over every outcome field (floats as
   [%h]), the telemetry sink's samples, per-unit occupancy accumulators,
   link transmits and deadlock wait cycle, and the swap records. The
   digests pin the simulator's observable behaviour across rewrites of
   its core: regenerate them with

     dune exec tools/fingerprint.exe

   only when a simulation change is intended. [sim_fingerprint] and the
   fixtures must stay in sync with tools/fingerprint.ml. *)

let sim_fingerprint
    ((o : Sim.outcome), (tm : Sim.telemetry option), records) =
  let buf = Buffer.create 4096 in
  let add_int i =
    Buffer.add_string buf (string_of_int i);
    Buffer.add_char buf ','
  in
  let add_float f =
    Buffer.add_string buf (Printf.sprintf "%h" f);
    Buffer.add_char buf ','
  in
  let add_ints a =
    Array.iter add_int a;
    Buffer.add_char buf '|'
  in
  add_int o.Sim.delivered_packets;
  add_int o.Sim.total_packets;
  add_int o.Sim.delivered_bytes;
  add_int o.Sim.dropped_packets;
  add_int o.Sim.cycles;
  add_int (Bool.to_int o.Sim.deadlock);
  List.iter add_float
    [ o.Sim.aggregate_gbs; o.Sim.avg_packet_latency; o.Sim.latency_p50;
      o.Sim.latency_p95; o.Sim.latency_p99; o.Sim.latency_max ];
  (match tm with
   | None -> Buffer.add_char buf 'N'
   | Some t ->
     Buffer.add_char buf 'T';
     add_int t.Sim.dropped_samples;
     add_int t.Sim.occupancy_samples;
     Array.iter
       (fun (s : Sim.sample) ->
          add_int s.Sim.at_cycle;
          add_ints s.Sim.link_occupancy;
          add_ints s.Sim.vl_occupancy)
       t.Sim.samples;
     add_ints t.Sim.unit_occupancy_sum;
     add_ints t.Sim.unit_occupancy_peak;
     add_ints t.Sim.link_transmits;
     List.iter
       (fun (c, vl) ->
          add_int c;
          add_int vl)
       t.Sim.deadlock_wait_cycle);
  Buffer.add_char buf ';';
  List.iter
    (fun (r : Sim.swap_record) ->
       add_ints
         [| r.Sim.swap_at; r.Sim.activated_at; r.Sim.in_flight_packets;
            r.Sim.in_flight_flits; r.Sim.drained_at |])
    records;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let torus332 () =
  (Nue_netgraph.Topology.torus3d ~dims:(3, 3, 2) ~terminals_per_switch:1 ())
    .Nue_netgraph.Topology.net

let golden_fixtures =
  let telemetry =
    { Sim.sample_every = 16; max_samples = 64; latency_bins = 32 }
  in
  let with_telemetry ?config table traffic =
    let o, t = Sim.run_with_telemetry ?config ~telemetry table ~traffic in
    (o, Some t, [])
  in
  let nue_a2a () =
    let net = torus332 () in
    (Nue.route ~vcs:2 net, Traffic.all_to_all_shift net ~message_bytes:512)
  in
  [ ("nue-a2a-torus332",
     fun () ->
       let table, traffic = nue_a2a () in
       with_telemetry table traffic);
    ("uniform4-rate0.05",
     fun () ->
       let table, _ = nue_a2a () in
       let traffic =
         Traffic.generate (Prng.create 5)
           (Traffic.Uniform { messages_per_terminal = 4 })
           table.Table.net ~message_bytes:512
       in
       with_telemetry
         ~config:{ Sim.default_config with injection_rate = 0.05 }
         table traffic);
    ("buf2-lat3",
     fun () ->
       let table, traffic = nue_a2a () in
       let config =
         { Sim.default_config with buffer_flits = 2; link_latency = 3 }
       in
       (Sim.run ~config table ~traffic, None, []));
    ("lash-multivl",
     fun () ->
       (* LASH needs two layers on this torus (one on 3x3x2). *)
       let net =
         (Nue_netgraph.Topology.torus3d ~dims:(5, 3, 2)
            ~terminals_per_switch:1 ())
           .Nue_netgraph.Topology.net
       in
       match Nue_routing.Lash.route net with
       | Error e -> Alcotest.failf "lash: %s" e
       | Ok table ->
         if table.Table.num_vls < 2 then Alcotest.fail "lash used one VL";
         with_telemetry table
           (Traffic.all_to_all_shift net ~message_bytes:256));
    ("clockwise-deadlock",
     fun () ->
       let table = clockwise_ring4 () in
       let traffic =
         Traffic.all_to_all_shift table.Table.net ~message_bytes:8192
       in
       with_telemetry
         ~config:{ Sim.default_config with buffer_flits = 2; watchdog = 5_000 }
         table traffic);
    ("swaps-direct-staged",
     fun () ->
       let net = torus332 () in
       match Nue_reconfig.Reconfig.init ~vcs:2 net with
       | Error msg -> Alcotest.failf "init failed: %s" msg
       | Ok state ->
         let table = state.Nue_reconfig.Reconfig.table in
         let traffic =
           List.concat
             (List.init 6 (fun _ ->
                  Traffic.all_to_all_shift net ~message_bytes:512))
         in
         Sim.run_with_swaps table
           ~swaps:
             [ { Sim.at_cycle = 100; table; staged = false };
               { Sim.at_cycle = 400; table; staged = true } ]
           ~traffic) ]

let recorded_goldens =
  [ ("nue-a2a-torus332", "58c463e225728d358a486c8e9a7be5c4");
    ("uniform4-rate0.05", "c0d58ca9e8b9683c73918ecac963881a");
    ("buf2-lat3", "3010d8546b48994c226e04f2d52fc0c5");
    ("lash-multivl", "fe8640be20e5da7429e781b32a304f37");
    ("clockwise-deadlock", "7689143a3147298d9aceeae7c811b4f7");
    ("swaps-direct-staged", "208146d846540e9331895b8da05400bc") ]

let run_fixture name = (List.assoc name golden_fixtures) ()

let golden name () =
  Alcotest.(check string) name (List.assoc name recorded_goldens)
    (sim_fingerprint (run_fixture name))

(* {1 Config validation} *)

(* Each field out of range is rejected up front: before this check,
   [mtu_bytes = 0] hung the packet splitter, [flit_bytes = 0] divided by
   zero and [buffer_flits = 0] reported a false deadlock. *)
let rejects_config field config () =
  let net = two_terminals () in
  let table = Minhop.route net in
  let terms = Network.terminals net in
  let traffic = [ { Traffic.src = terms.(0); dst = terms.(1); bytes = 512 } ] in
  Alcotest.check_raises field
    (Invalid_argument (Printf.sprintf "Sim.run: %s" field))
    (fun () -> ignore (Sim.run ~config table ~traffic))

let config_cases =
  let d = Sim.default_config in
  [ ("buffer_flits must be >= 1", { d with buffer_flits = 0 });
    ("link_latency must be >= 0", { d with link_latency = -1 });
    ("flit_bytes must be >= 1", { d with flit_bytes = 0 });
    ("mtu_bytes must be >= 1", { d with mtu_bytes = 0 });
    ("watchdog must be >= 1", { d with watchdog = 0 }) ]

(* {1 Allocation budget} *)

(* Flits times channels crossed, summed over the traffic: the work a run
   does, counted from the table before it runs. *)
let flit_hops table (config : Sim.config) traffic =
  let flits b = (b + config.Sim.flit_bytes - 1) / config.Sim.flit_bytes in
  List.fold_left
    (fun acc { Traffic.src; dst; bytes } ->
       let n =
         (bytes / config.Sim.mtu_bytes * flits config.Sim.mtu_bytes)
         + flits (bytes mod config.Sim.mtu_bytes)
       in
       match Table.hop_count table ~src ~dest:dst with
       | Some hops -> acc + (n * hops)
       | None -> acc)
    0 traffic

(* The simulator core allocates per packet, never per flit: with
   counting and tracing off, a whole all-to-all run stays within two
   minor-heap words per flit-hop (set-up, routes and the latency
   histogram included). *)
let allocation_budget () =
  Alcotest.(check bool) "counting off" false (Obs.enabled ());
  Alcotest.(check bool) "tracing off" false (Span.enabled ());
  let net =
    (Nue_netgraph.Topology.torus3d ~dims:(4, 4, 2) ~terminals_per_switch:1 ())
      .Nue_netgraph.Topology.net
  in
  let table = Nue.route ~vcs:2 net in
  let traffic = Traffic.all_to_all_shift net ~message_bytes:2048 in
  let config = Sim.default_config in
  let hops = flit_hops table config traffic in
  let before = Gc.minor_words () in
  let out = Sim.run ~config table ~traffic in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all delivered" out.Sim.total_packets
    out.Sim.delivered_packets;
  let per_hop = words /. float_of_int hops in
  if per_hop > 2.0 then
    Alcotest.failf "%.0f minor words for %d flit-hops (%.2f per flit-hop)"
      words hops per_hop

(* {1 Counters} *)

(* Counts are tallied inside the run and published once at its end;
   the totals match what the outcome and telemetry report. *)
let counters_match_outcome () =
  Obs.disable ();
  Obs.reset ();
  Obs.enable ();
  let o, tm, _ = run_fixture "nue-a2a-torus332" in
  let tm = Option.get tm in
  let snap = Obs.snapshot () in
  let d, _, _ = run_fixture "clockwise-deadlock" in
  let snap2 = Obs.snapshot () in
  Obs.disable ();
  Obs.reset ();
  let count s name = Obs.find s name in
  Alcotest.(check int) "flit transmits"
    (Array.fold_left ( + ) 0 tm.Sim.link_transmits)
    (count snap "sim.flit_transmits");
  Alcotest.(check int) "packets delivered" o.Sim.delivered_packets
    (count snap "sim.packets_delivered");
  Alcotest.(check int) "cycles" o.Sim.cycles (count snap "sim.cycles");
  Alcotest.(check int) "samples" tm.Sim.occupancy_samples
    (count snap "sim.telemetry_samples");
  Alcotest.(check int) "no deadlock counted" 0 (count snap "sim.deadlocks");
  Alcotest.(check int) "deadlock counted" 1 (count snap2 "sim.deadlocks");
  Alcotest.(check int) "deadlocked run's deliveries added"
    (o.Sim.delivered_packets + d.Sim.delivered_packets)
    (count snap2 "sim.packets_delivered")

let suite =
  [ ("traffic",
     [ test_case "all-to-all counts" `Quick traffic_all_to_all_counts;
       test_case "uniform random counts" `Quick traffic_uniform_random_counts;
       test_case "permutation bijective" `Quick traffic_permutation_bijective ]);
    ("sim",
     [ test_case "single message" `Quick single_message_delivery;
       test_case "MTU split" `Quick message_split_into_mtu_packets;
       test_case "all-to-all completes" `Slow all_to_all_completes;
       test_case "link rate bound" `Quick link_rate_bound;
       test_case "deadlock detected" `Quick deadlock_detected_on_cyclic_routing;
       test_case "nue survives same load" `Quick nue_survives_where_cyclic_deadlocks;
       test_case "rejects non-terminal endpoints" `Quick
         rejects_non_terminal_endpoints;
       test_case "VC trend sanity" `Slow more_vcs_do_not_hurt_much ]);
    ("sim:telemetry",
     [ test_case "observation-only" `Slow telemetry_matches_plain_run;
       test_case "sampling and utilization" `Slow
         telemetry_sampling_and_utilization;
       test_case "deadlock attribution" `Quick
         deadlock_attributed_to_wait_cycle ]);
    ("sim:golden",
     List.map
       (fun (name, _) -> test_case name `Quick (golden name))
       golden_fixtures);
    ("sim:config",
     List.map
       (fun (field, config) ->
          test_case field `Quick (rejects_config field config))
       config_cases);
    ("sim:budget",
     [ test_case "allocation per flit-hop" `Quick allocation_budget;
       test_case "counters match the outcome" `Quick counters_match_outcome ]) ]
