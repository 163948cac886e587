(* TELEMETRY: flit-level simulation telemetry per (topology, engine):
   packet-latency percentiles through Nue_metrics.Histogram, per-link
   utilization peaks, and — when an engine's table deadlocks — the
   attributed circular wait of (channel, VL) units. This section is
   the reason BENCH_nue.json carries schema nue-bench/2: rows gained
   latency_p50/p95/p99/max and peak link utilization.

   Engines that do not apply to a topology are skipped silently, as
   everywhere else in the harness. Deadlocking engines are kept: the
   row then showcases the simulator's deadlock attribution. *)

module Engine = Nue_routing.Engine
module Engine_error = Nue_routing.Engine_error
module Experiment = Nue_pipeline.Experiment
module Json = Nue_pipeline.Json
module Sim = Nue_sim.Sim
module H = Nue_metrics.Histogram

let setups ~full =
  if full then
    [ ("torus-4x4x4", 2048,
       Experiment.setup
         (Experiment.Torus3d { dims = (4, 4, 4); terminals = 2; redundancy = 1 }));
      ("random-32", 1024,
       Experiment.setup ~seed:42
         (Experiment.Random { switches = 32; links = 96; terminals = 2 })) ]
  else
    [ ("torus-3x3x3", 256,
       Experiment.setup
         (Experiment.Torus3d { dims = (3, 3, 3); terminals = 1; redundancy = 1 }));
      ("random-12", 256,
       Experiment.setup ~seed:42
         (Experiment.Random { switches = 12; links = 36; terminals = 2 })) ]

let telemetry_summary (t : Sim.telemetry) =
  let mean_util =
    let n = Array.length t.Sim.link_utilization in
    if n = 0 then 0.0
    else Array.fold_left ( +. ) 0.0 t.Sim.link_utilization /. float_of_int n
  in
  Json.Obj
    [ ("latency_p50", Json.Float (H.percentile t.Sim.latency 0.50));
      ("latency_p95", Json.Float (H.percentile t.Sim.latency 0.95));
      ("latency_p99", Json.Float (H.percentile t.Sim.latency 0.99));
      ("latency_max", Json.Float (H.max_value t.Sim.latency));
      ("latency_count", Json.Int (H.count t.Sim.latency));
      ("peak_link_utilization", Json.Float t.Sim.peak_link_utilization);
      ("peak_link", Json.Int t.Sim.peak_link);
      ("mean_link_utilization", Json.Float mean_util);
      ("samples", Json.Int (Array.length t.Sim.samples));
      ("sample_every", Json.Int t.Sim.sample_every);
      ("deadlock_wait_cycle",
       Json.List
         (List.map
            (fun (c, vl) ->
               Json.Obj [ ("channel", Json.Int c); ("vl", Json.Int vl) ])
            t.Sim.deadlock_wait_cycle)) ]

let run ?(full = false) () =
  Common.section
    "TELEMETRY: sim utilization and latency percentiles (BENCH_nue.json)";
  Common.print_header
    [ (14, "Topology"); (11, "Engine"); (9, "Deadlock"); (10, "Peak util");
      (8, "p50"); (8, "p95"); (8, "p99"); (8, "max") ];
  let rows = ref [] in
  List.iter
    (fun (topo_name, message_bytes, setup) ->
       let built = Experiment.build setup in
       List.iter
         (fun (module E : Engine.ENGINE) ->
            let o = Experiment.run ~vcs:4 ~engine:E.name built in
            match o.Experiment.table with
            | Error (Engine_error.Topology_mismatch _) ->
              () (* engine/topology mismatch: skip, as the paper does *)
            | Error e ->
              Printf.printf "%s%s(%s)\n"
                (Common.cell 14 topo_name)
                (Common.cell 11 o.Experiment.engine)
                (Engine_error.to_string e)
            | Ok table
              when (match o.Experiment.metrics with
                    | Some m ->
                      not m.Experiment.verify.Nue_routing.Verify.connected
                    | None -> true) ->
              (* Partial tables (e.g. static-cdg's subset routing) cannot
                 feed the simulator: unrouted pairs raise. *)
              ignore table;
              Printf.printf "%s%s(table not connected; sim skipped)\n"
                (Common.cell 14 topo_name)
                (Common.cell 11 o.Experiment.engine)
            | Ok table ->
              let out, t =
                Experiment.simulate ~telemetry:Sim.default_telemetry
                  ~message_bytes table
              in
              let t = Option.get t in
              Printf.printf "%s%s%s%s%s%s%s%s\n"
                (Common.cell 14 topo_name)
                (Common.cell 11 o.Experiment.engine)
                (Common.cell 9 (if out.Sim.deadlock then "YES" else "no"))
                (Common.cell 10
                   (Printf.sprintf "%.3f" t.Sim.peak_link_utilization))
                (Common.cell 8
                   (Printf.sprintf "%.0f" (H.percentile t.Sim.latency 0.50)))
                (Common.cell 8
                   (Printf.sprintf "%.0f" (H.percentile t.Sim.latency 0.95)))
                (Common.cell 8
                   (Printf.sprintf "%.0f" (H.percentile t.Sim.latency 0.99)))
                (Common.cell 8
                   (Printf.sprintf "%.0f" (H.max_value t.Sim.latency)));
              rows :=
                Json.Obj
                  [ ("topology", Json.Str topo_name);
                    ("engine", Json.Str o.Experiment.engine);
                    ("message_bytes", Json.Int message_bytes);
                    ("sim", Experiment.sim_to_json out);
                    ("telemetry", telemetry_summary t) ]
                :: !rows)
         (Engine.all ()))
    (setups ~full);
  Report.add "telemetry" (Json.List (List.rev !rows))
