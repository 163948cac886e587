(* Routing-table and simulation fingerprints for the equivalence suites.

   Prints one `fixture engine md5` line per engine x seeded-fixture
   combination. test/test_compact.ml pins these digests: the compact
   int-indexed graph core must keep every seeded table byte-identical to
   the hashtable-era tables recorded here. Then prints one
   `sim fixture md5` line per seeded simulation, which test/test_sim.ml
   pins across rewrites of the simulator core. Regenerate with

     dune exec tools/fingerprint.exe

   only when a table or simulation change is *intended* (and say why in
   the commit).

   The canonicalizations must match [Helpers.table_fingerprint] in
   test/helpers.ml and [sim_fingerprint] in test/test_sim.ml — keep them
   in sync. *)

module Network = Nue_netgraph.Network
module Topology = Nue_netgraph.Topology
module Table = Nue_routing.Table
module Engine = Nue_routing.Engine
module Experiment = Nue_pipeline.Experiment
module Prng = Nue_structures.Prng
module Sim = Nue_sim.Sim
module Traffic = Nue_sim.Traffic

let table_fingerprint (t : Table.t) =
  let buf = Buffer.create 4096 in
  let add_int i = Buffer.add_string buf (string_of_int i); Buffer.add_char buf ',' in
  Buffer.add_string buf t.Table.algorithm;
  Buffer.add_char buf ';';
  add_int t.Table.num_vls;
  Array.iter add_int t.Table.dests;
  Buffer.add_char buf ';';
  Array.iter
    (fun row ->
       Array.iter add_int row;
       Buffer.add_char buf '|')
    t.Table.next_channel;
  Buffer.add_char buf ';';
  (match t.Table.vl with
   | Table.All_zero -> Buffer.add_char buf 'Z'
   | Table.Per_dest a ->
     Buffer.add_char buf 'D';
     Array.iter add_int a
   | Table.Per_pair a ->
     Buffer.add_char buf 'P';
     Array.iter
       (fun row ->
          Array.iter add_int row;
          Buffer.add_char buf '|')
       a
   | Table.Per_hop _ ->
     (* Closures cannot be serialized directly; walk every pair's path
        and record the per-hop (channel, vl) sequence instead. *)
     Buffer.add_char buf 'H';
     let nn = Network.num_nodes t.Table.net in
     Array.iter
       (fun dest ->
          for src = 0 to nn - 1 do
            if src <> dest then
              match Table.path_with_vls t ~src ~dest with
              | None -> ()
              | Some hops ->
                List.iter (fun (c, v) -> add_int c; add_int v) hops;
                Buffer.add_char buf '|'
          done)
       t.Table.dests);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Fixtures mirror test/helpers.ml; the builders must stay in sync. *)

let ring5 () =
  let b = Network.Builder.create ~name:"ring5+shortcut" () in
  let sw = Array.init 5 (fun _ -> Network.Builder.add_switch b) in
  for i = 0 to 4 do
    Network.Builder.connect b sw.(i) sw.((i + 1) mod 5)
  done;
  Network.Builder.connect b sw.(2) sw.(4);
  Array.iter
    (fun s ->
       let t = Network.Builder.add_terminal b in
       Network.Builder.connect b t s)
    sw;
  Network.Builder.build b

let ring n =
  let b = Network.Builder.create ~name:(Printf.sprintf "ring%d" n) () in
  let sw = Array.init n (fun _ -> Network.Builder.add_switch b) in
  for i = 0 to n - 1 do
    Network.Builder.connect b sw.(i) sw.((i + 1) mod n)
  done;
  Array.iter
    (fun s ->
       let t = Network.Builder.add_terminal b in
       Network.Builder.connect b t s)
    sw;
  Network.Builder.build b

let line n =
  let b = Network.Builder.create ~name:(Printf.sprintf "line%d" n) () in
  let sw = Array.init n (fun _ -> Network.Builder.add_switch b) in
  for i = 0 to n - 2 do
    Network.Builder.connect b sw.(i) sw.(i + 1)
  done;
  Array.iter
    (fun s ->
       let t = Network.Builder.add_terminal b in
       Network.Builder.connect b t s)
    sw;
  Network.Builder.build b

let fixtures () =
  let prebuilt ?torus ?tree net =
    Experiment.build (Experiment.setup (Experiment.prebuilt ?torus ?tree net))
  in
  [ ("ring5", prebuilt (ring5 ()));
    ("ring8", prebuilt (ring 8));
    ("line6", prebuilt (line 6));
    ("torus333",
     (let t = Topology.torus3d ~dims:(3, 3, 3) ~terminals_per_switch:2 () in
      prebuilt ~torus:t t.Topology.net));
    ("torus443",
     (let t = Topology.torus3d ~dims:(4, 4, 3) ~terminals_per_switch:2 () in
      prebuilt ~torus:t t.Topology.net));
    ("random12",
     Experiment.build
       (Experiment.setup ~seed:7
          (Experiment.Random { switches = 12; links = 30; terminals = 2 })));
    ("dense16",
     Experiment.build
       (Experiment.setup ~seed:3
          (Experiment.Random { switches = 16; links = 48; terminals = 2 })));
    ("random20",
     (let prng = Prng.create 42 in
      prebuilt
        (Topology.random prng ~switches:20 ~inter_switch_links:50
           ~terminals_per_switch:2 ())));
    ("tree442",
     Experiment.build
       (Experiment.setup
          (Experiment.Kary_ntree { k = 4; n = 2; terminals = 2 }))) ]

let engines_for fixture =
  let base =
    [ "minhop"; "sssp"; "updown"; "dfsssp"; "lash"; "static-cdg"; "nue" ]
  in
  match fixture with
  | "torus333" | "torus443" -> base @ [ "torus2qos" ]
  | "tree442" -> base @ [ "fattree" ]
  | _ -> base

(* {1 Simulation fixtures} *)

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
  (Topology.torus3d ~dims:(3, 3, 2) ~terminals_per_switch:1 ()).Topology.net

let clockwise_ring4 () =
  let net = ring 4 in
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

let sim_fixtures =
  let telemetry =
    { Sim.sample_every = 16; max_samples = 64; latency_bins = 32 }
  in
  let with_telemetry ?config table traffic =
    let o, t = Sim.run_with_telemetry ?config ~telemetry table ~traffic in
    (o, Some t, [])
  in
  let nue_a2a () =
    let net = torus332 () in
    (Nue_core.Nue.route ~vcs:2 net,
     Traffic.all_to_all_shift net ~message_bytes:512)
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
         (Topology.torus3d ~dims:(5, 3, 2) ~terminals_per_switch:1 ())
           .Topology.net
       in
       match Nue_routing.Lash.route net with
       | Error e -> failwith ("lash: " ^ e)
       | Ok table ->
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
       | Error msg -> failwith ("init failed: " ^ msg)
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

let () =
  List.iter
    (fun (name, built) ->
       List.iter
         (fun engine ->
            match Engine.route engine (Experiment.spec ~vcs:8 built) with
            | Ok table ->
              Printf.printf "%s %s %s\n" name engine (table_fingerprint table)
            | Error e ->
              Printf.printf "%s %s ERROR:%s\n" name engine
                (Nue_routing.Engine_error.to_string e))
         (engines_for name))
    (fixtures ());
  List.iter
    (fun (name, run) ->
       Printf.printf "sim %s %s\n" name (sim_fingerprint (run ())))
    sim_fixtures
