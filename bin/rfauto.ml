(* rfauto — command-line front end for the reproduction experiments. *)

open Cmdliner
module Experiment = Rf_core.Experiment
module Analysis = Rf_core.Analysis
module Scenario = Rf_core.Scenario
module Baseline = Rf_obs.Baseline

let std = Format.std_formatter

(* --- options shared across commands -------------------------------- *)

let int_arg name default doc =
  Arg.(value & opt int default & info [ name ] ~doc)

let float_arg name default doc =
  Arg.(value & opt float default & info [ name ] ~doc)

let flag_arg name doc = Arg.(value & flag & info [ name ] ~doc)

let file_arg name doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

let seed_arg = int_arg "seed" 42 "Simulation seed (same seed, same trace)."
let switches_arg ?(doc = "Ring size.") default = int_arg "switches" default doc
let horizon_arg ?(doc = "Sim seconds.") default =
  float_arg "horizon" default doc

let boot_arg =
  float_arg "boot-time" 8.0 "VM creation (clone+boot) time in seconds."

let parallel_arg =
  int_arg "parallel-boot" 1
    "Concurrent VM creations (1 = paper-era serialized RouteFlow)."

let telemetry_arg =
  file_arg "telemetry"
    "Write the run's span/event telemetry as JSON lines to $(docv)."

let out_arg doc = file_arg "out" doc

let summary_arg what fingerprint =
  file_arg "summary-out"
    (Printf.sprintf
       "Write %s to $(docv) (byte-identical across same-seed runs; used by \
        CI as the %s fingerprint)."
       what fingerprint)

let profile_flag =
  flag_arg "profile"
    "Attach the engine profiler to the run and print the per-entity load \
     table, heap-depth curve and GC deltas afterwards (wall figures; never \
     part of fingerprinted output)."

let make_profiler enabled =
  if enabled then Some (Rf_obs.Profiler.create ()) else None

let print_profiler_report = function
  | None -> ()
  | Some p ->
      let sn = Rf_obs.Profiler.snapshot p in
      Format.fprintf std "@.";
      Rf_obs.Profiler.pp_top ~wall:true ~top:10 std sn;
      Rf_obs.Profiler.pp_depth_curve std sn

(* Experiments reject out-of-range values with [Invalid_argument]:
   report those as command-line errors, not internal ones. Every
   command's run takes a final [()] so the guard wraps all of it. *)
let command name ~doc term =
  let guarded run =
    try run ()
    with Invalid_argument msg ->
      Format.eprintf "rfauto %s: %s@." name msg;
      exit Cmd.Exit.cli_error
  in
  Cmd.v (Cmd.info name ~doc) Term.(const guarded $ term)

(* --- trace analytics ------------------------------------------------ *)

type analysis = {
  slo : bool;
  flamegraph : string option;
  baseline : string option;
}

let analysis_term =
  let slo_arg =
    flag_arg "slo"
      "Evaluate the experiment's SLO rules against the run's telemetry and \
       print the PASS/WARN/FAIL scorecard (exit 2 on FAIL)."
  in
  let flamegraph_arg =
    file_arg "flamegraph"
      "Write a folded-stack flamegraph of the run's span tree to $(docv) \
       (self-time microseconds; renderable by flamegraph.pl or speedscope)."
  in
  let baseline_arg =
    file_arg "baseline"
      "Diff this run's indicators against the baseline stored in $(docv) \
       (exit 3 on regression); the file is created when missing."
  in
  Term.(
    const (fun slo flamegraph baseline -> { slo; flamegraph; baseline })
    $ slo_arg $ flamegraph_arg $ baseline_arg)

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let write_flamegraph path forest =
  write_file path (Rf_obs.Flamegraph.folded forest);
  Format.fprintf std "flamegraph written to %s@." path

let save_baseline path current =
  Baseline.save path current;
  Format.fprintf std "baseline saved to %s@." path

(* The baseline diff (or first save) and the exit gates over one result
   list: 3 on a baseline regression, then 2 on an SLO FAIL. *)
let gate ~label an results =
  let current = Analysis.baseline_run ~label results in
  (match an.baseline with
  | Some path when Sys.file_exists path ->
      let entries = Baseline.diff ~base:(Baseline.load path) ~current () in
      Format.fprintf std "@.vs baseline %s:@.%a" path Baseline.pp_diff entries;
      if Baseline.has_regression entries then exit 3
  | Some path -> save_baseline path current
  | None -> ());
  if an.slo && Rf_obs.Slo.worst results = Rf_obs.Slo.Fail then exit 2

(* --audit support: print the audited runs' window summaries and exit 5
   when any violation window overlaps the steady-state interval —
   "quiescent network => zero violations" is CI-gateable. *)
let audit_flag =
  flag_arg "audit"
    "Attach the continuous forwarding-state auditor to the run(s), print the \
     violation-window summary, and exit 5 if any window overlaps the \
     steady-state (post-convergence, pre-fault) interval."

let print_audit_runs runs =
  List.iter (Experiment.print_audit_run std) (List.filter_map Fun.id runs)

let audit_gate runs =
  if
    List.exists
      (fun (r : Experiment.audit_run) -> r.ar_steady_windows > 0)
      (List.filter_map Fun.id runs)
  then begin
    Format.eprintf "rfauto: steady-state forwarding violations detected@.";
    exit 5
  end

let announce = Option.iter (Format.fprintf std "telemetry written to %s@.")

(* One experiment command. [run] gets the telemetry path — a temp file,
   removed after ingestion, when analysis is asked for without [out] —
   and prints its report. Then come the "telemetry written" line
   ([announce]), the [summary] file, the post-run analysis of [exp]'s
   rule set and the audit gate; the run's result is returned. *)
let run_experiment ?(announce_out = true) ?summary_out
    ?(summary = fun _ _ -> ()) ?(audits = fun _ -> []) exp an out run =
  let needed = an.slo || an.flamegraph <> None || an.baseline <> None in
  let telemetry =
    match (out, needed) with
    | Some path, _ -> Some path
    | None, true -> Some (Filename.temp_file "rfauto-analyze" ".jsonl")
    | None, false -> None
  in
  let r = run telemetry in
  if announce_out then announce out;
  Option.iter
    (fun path -> write_file path (Format.asprintf "%a" summary r))
    summary_out;
  (match telemetry with
  | Some path when needed ->
      let dump =
        Fun.protect
          ~finally:(fun () ->
            if out = None then try Sys.remove path with Sys_error _ -> ())
          (fun () -> Rf_obs.Ingest.load_file path)
      in
      let results = Analysis.evaluate exp dump in
      if an.slo then Format.fprintf std "@.%a" Analysis.scorecard results;
      Option.iter
        (fun path -> write_flamegraph path (Analysis.forest dump))
        an.flamegraph;
      gate ~label:(Analysis.name exp) an results
  | Some _ | None -> ());
  audit_gate (audits r);
  r

(* --- fig3 --------------------------------------------------------- *)

let fig3_cmd =
  let sizes_arg =
    let doc = "Ring sizes to sweep (comma separated)." in
    Arg.(
      value & opt (list int) [ 4; 8; 12; 16; 20; 24; 28 ] & info [ "sizes" ] ~doc)
  in
  let run sizes vm_boot_s parallel_boot telemetry profile () =
    let profiler = make_profiler profile in
    Experiment.print_fig3 std
      (Experiment.fig3 ~sizes ~vm_boot_s ~parallel_boot ?telemetry ?profiler ());
    print_profiler_report profiler
  in
  command "fig3"
    ~doc:"Reproduce Figure 3: automatic vs manual configuration time"
    Term.(
      const run $ sizes_arg $ boot_arg $ parallel_arg $ telemetry_arg
      $ profile_flag)

(* --- demo --------------------------------------------------------- *)

let demo_cmd =
  let server_arg =
    Arg.(
      value & opt string "Glasgow"
      & info [ "server" ] ~doc:"City hosting the video server.")
  in
  let client_arg =
    Arg.(
      value & opt string "Athens"
      & info [ "client" ] ~doc:"City hosting the remote client.")
  in
  let protocol_arg =
    let doc = "Routing protocol the VMs run: ospf or rip." in
    Arg.(
      value
      & opt
          (enum
             [
               ("ospf", Rf_routeflow.Rf_system.Proto_ospf);
               ("rip", Rf_routeflow.Rf_system.Proto_rip);
             ])
          Rf_routeflow.Rf_system.Proto_ospf
      & info [ "protocol" ] ~doc)
  in
  let pcap_arg =
    file_arg "pcap"
      "Write a pcap capture of the client's access link to $(docv)."
  in
  let run vm_boot_s horizon_s server_city client_city protocol pcap_path
      telemetry () =
    Experiment.print_demo std
      (Experiment.demo ~vm_boot_s ~horizon_s ~server_city ~client_city ~protocol
         ?pcap_path ?telemetry ())
  in
  command "demo"
    ~doc:
      "Reproduce the demonstration: stream video across the pan-European \
       topology while RouteFlow configures itself"
    Term.(
      const run $ boot_arg
      $ horizon_arg ~doc:"Simulated horizon in seconds." 360.0
      $ server_arg $ client_arg $ protocol_arg $ pcap_arg $ telemetry_arg)

(* --- failure -------------------------------------------------------- *)

let failure_cmd =
  let run seed switches fail_at_s horizon_s audit telemetry profile an () =
    let profiler = make_profiler profile in
    ignore
      (run_experiment Analysis.E3 an telemetry ~announce_out:false
         ~audits:(fun (r : Experiment.recovery_result) -> [ r.fr_audit ])
         (fun telemetry ->
           let r =
             Experiment.failure_recovery ~seed ~switches ~fail_at_s ~horizon_s
               ~audit ?telemetry ?profiler ()
           in
           Experiment.print_failure_recovery std r;
           print_audit_runs [ r.fr_audit ];
           print_profiler_report profiler;
           r))
  in
  command "failure"
    ~doc:
      "Cut a ring link under live traffic and report packet loss and \
       reconvergence time (deterministic: same seed, same trace)"
    Term.(
      const run $ seed_arg
      $ switches_arg ~doc:"Ring size (>= 4)." 6
      $ float_arg "fail-at" 60.0 "Link cut time (sim s)."
      $ horizon_arg 150.0 $ audit_flag $ telemetry_arg $ profile_flag
      $ analysis_term)

(* --- restart -------------------------------------------------------- *)

let restart_cmd =
  let run seed switches crash_at_s cut_at_s recover_at_s horizon_s audit
      telemetry an () =
    let audits (r : Experiment.restart_result) =
      [ r.rs_supervised.rr_audit; r.rs_legacy.rr_audit ]
    in
    ignore
      (run_experiment Analysis.E4 an telemetry ~announce_out:false ~audits
         (fun telemetry ->
           let r =
             Experiment.restart ~seed ~switches ~crash_at_s ~cut_at_s
               ~recover_at_s ~horizon_s ~audit ?telemetry ()
           in
           Experiment.print_restart std r;
           print_audit_runs (audits r);
           r))
  in
  command "restart"
    ~doc:
      "Crash the RF-controller, cut a link while it is down, and compare \
       recovery with and without the session-aware RPC reconciliation \
       (deterministic: same seed, same trace)"
    Term.(
      const run $ seed_arg
      $ switches_arg ~doc:"Ring size (>= 4)." 8
      $ float_arg "crash-at" 4.0 "RF-controller crash time (sim s)."
      $ float_arg "cut-at" 8.0
          "Cut link sw2-sw3 at this time, while the controller is down."
      $ float_arg "recover-at" 20.0 "RF-controller restart time (sim s)."
      $ horizon_arg 120.0 $ audit_flag $ telemetry_arg $ analysis_term)

(* --- gui ----------------------------------------------------------- *)

let gui_cmd =
  let run vm_boot_s every_s () =
    List.iter
      (fun frame -> Format.fprintf std "%s@." frame)
      (Experiment.gui_frames ~vm_boot_s ~every_s ())
  in
  command "gui" ~doc:"Render the red/green GUI frames of the demo run"
    Term.(const run $ boot_arg $ float_arg "every" 30.0 "Frame period (sim s).")

(* --- scaling -------------------------------------------------------- *)

let scaling_cmd =
  let sizes =
    Arg.(
      value
      & opt (list int) [ 50; 100; 250; 500; 1000 ]
      & info [ "sizes" ] ~doc:"Ring sizes.")
  in
  let run sizes () =
    Experiment.print_scaling std (Experiment.scaling ~sizes ())
  in
  command "scaling" ~doc:"Extension: configuration time up to 1000 switches"
    Term.(const run $ sizes)

(* --- ablation -------------------------------------------------------- *)

let ablation_cmd =
  let which =
    let doc = "Which knob: boot, probe, rpc, or proto." in
    Arg.(
      value
      & pos 0
          (enum [ ("boot", `Boot); ("probe", `Probe); ("rpc", `Rpc); ("proto", `Proto) ])
          `Boot
      & info [] ~doc)
  in
  let run which switches () =
    match which with
    | `Boot ->
        Experiment.print_ablation std "VM boot parallelism"
          (Experiment.ablation_parallel_boot ~switches ())
    | `Probe ->
        Experiment.print_ablation std "LLDP probe interval"
          (Experiment.ablation_probe_interval ~switches ())
    | `Rpc ->
        Experiment.print_ablation std "RPC latency (controller placement)"
          (Experiment.ablation_rpc_latency ~switches ())
    | `Proto ->
        Experiment.print_ablation std "routing protocol (OSPF vs RIPv2)"
          (Experiment.ablation_protocol ~switches ())
  in
  command "ablation" ~doc:"Design-choice ablations on the 28-switch ring"
    Term.(const run $ which $ switches_arg 28)

(* --- inspect ---------------------------------------------------------- *)

let inspect_cmd =
  let run n dpid () =
    let s =
      Experiment.config_run
        ~horizon_s:((2.0 *. float_of_int n) +. 30.)
        ~vm_boot_s:2.0 ~parallel_boot:1 (Rf_net.Topo_gen.ring n)
    in
    let d = Int64.of_int dpid in
    match Rf_routeflow.Rf_system.vm (Scenario.rf_system s) d with
    | None -> Format.printf "switch %Ld has no VM@." d
    | Some vm ->
        Format.printf "=== %s: show ip route ===@.%s@." (Rf_routeflow.Vm.hostname vm)
          (Rf_routing.Show.ip_route (Rf_routeflow.Vm.rib vm));
        (match Rf_routeflow.Vm.ospfd vm with
        | Some daemon ->
            Format.printf "=== show ip ospf neighbor ===@.%s@."
              (Rf_routing.Show.ip_ospf_neighbor daemon);
            Format.printf "=== show ip ospf database ===@.%s@."
              (Rf_routing.Show.ip_ospf_database daemon)
        | None -> ());
        (match Rf_routeflow.Vm.ripd vm with
        | Some daemon ->
            Format.printf "=== show ip rip ===@.%s@." (Rf_routing.Show.ip_rip daemon)
        | None -> ());
        (match Rf_routeflow.Vm.config_file vm "zebra.conf" with
        | Some text -> Format.printf "=== zebra.conf ===@.%s@." text
        | None -> ());
        let dp = Rf_net.Network.datapath (Scenario.network s) d in
        Format.printf "=== physical flow table (%d entries) ===@."
          (Rf_net.Flow_table.size (Rf_net.Datapath.flow_table dp));
        List.iter
          (fun (e : Rf_net.Flow_table.entry) ->
            Format.printf "  prio=%d %a -> %s@." e.Rf_net.Flow_table.e_priority
              Rf_openflow.Of_match.pp e.Rf_net.Flow_table.e_match
              (String.concat ", "
                 (List.map
                    (Format.asprintf "%a" Rf_openflow.Of_action.pp)
                    e.Rf_net.Flow_table.e_actions)))
          (Rf_net.Flow_table.entries (Rf_net.Datapath.flow_table dp))
  in
  command "inspect"
    ~doc:"Run a ring scenario, then dump one VM's vtysh state and its switch's flow table"
    Term.(
      const run $ switches_arg 4
      $ int_arg "dpid" 1 "Switch whose VM to inspect.")

(* --- obs --------------------------------------------------------------- *)

let obs_cmd =
  let run switches vm_boot_s parallel_boot out summary_out prometheus spans an
      () =
    let s, _ =
      run_experiment Analysis.E1b an out ?summary_out
        ~summary:(fun ppf (_, b) -> Experiment.print_phases ppf b)
        (fun telemetry ->
          let s =
            Experiment.phase_run ~switches ~vm_boot_s ~parallel_boot ?telemetry
              ()
          in
          let b = Experiment.breakdown_of s in
          Experiment.print_phases std b;
          (s, b))
    in
    if spans then
      Format.fprintf std "@.%a" Rf_obs.Export.pp_span_stats
        (Scenario.span_stats s);
    if prometheus then Format.fprintf std "@.%s" (Scenario.prometheus s)
  in
  command "obs"
    ~doc:
      "Run a ring configuration and decompose the end-to-end time into \
       discovery, RPC, VM-provisioning, Quagga and convergence phases from \
       the span tree; optionally dump JSONL telemetry and Prometheus-style \
       metrics"
    Term.(
      const run $ switches_arg 28 $ boot_arg $ parallel_arg
      $ out_arg "Write span/event JSONL to $(docv)."
      $ summary_arg "the per-phase summary table" "E1"
      $ flag_arg "prometheus"
          "Also print the metrics registry in Prometheus text format."
      $ flag_arg "spans" "Also print per-span-name aggregates."
      $ analysis_term)

(* --- trace ------------------------------------------------------------- *)

let trace_cmd =
  let run n () =
    let s =
      Experiment.config_run
        ~horizon_s:((8.0 *. float_of_int n) +. 60.)
        ~vm_boot_s:8.0 ~parallel_boot:1 (Rf_net.Topo_gen.ring n)
    in
    let timeline = Rf_core.Timeline.of_scenario s in
    print_string (Rf_core.Timeline.render timeline);
    let sum = Rf_core.Timeline.summarize timeline in
    Format.printf
      "@.%d switches detected, %d links detected, %d VMs ready, %d configured@."
      sum.Rf_core.Timeline.switches_detected sum.Rf_core.Timeline.links_detected
      sum.Rf_core.Timeline.vms_ready sum.Rf_core.Timeline.vms_configured;
    (match sum.Rf_core.Timeline.last_vm_ready_s with
    | Some t -> Format.printf "last VM ready at %.1f s@." t
    | None -> ())
  in
  command "trace" ~doc:"Print the configuration event timeline of a ring run"
    Term.(const run $ switches_arg 4)

(* --- run: user topology file ------------------------------------------- *)

let run_cmd =
  let topo_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "topo" ] ~docv:"FILE"
          ~doc:"Topology file (switch/link/host lines; see Topo_file).")
  in
  let run topo_path horizon vm_boot_s () =
    match Rf_net.Topo_file.load topo_path with
    | Error e ->
        Format.eprintf "%s@." e;
        exit 1
    | Ok topo ->
        let s =
          Experiment.config_run
            ?horizon_s:(if horizon > 0. then Some horizon else None)
            ~vm_boot_s ~parallel_boot:1 topo
        in
        print_string (Rf_core.Timeline.render (Rf_core.Timeline.of_scenario s));
        Format.printf "@.%s@." (Rf_core.Gui.render (Scenario.gui s));
        (match Scenario.all_configured_at s with
        | Some t ->
            Format.printf "all switches configured at %.1f s@." (Rf_sim.Vtime.to_s t)
        | None -> Format.printf "configuration incomplete within the horizon@.");
        match Scenario.routing_converged_at s with
        | Some t -> Format.printf "routing converged at %.1f s@." (Rf_sim.Vtime.to_s t)
        | None -> Format.printf "routing not converged within the horizon@."
  in
  command "run"
    ~doc:"Autoconfigure a user-supplied topology file and report the timeline"
    Term.(
      const run $ topo_arg
      $ horizon_arg ~doc:"Sim seconds (0 = auto)." 0.0
      $ boot_arg)

(* --- families --------------------------------------------------------- *)

let families_cmd =
  let run n () =
    Experiment.print_families std (Experiment.topo_families ~n ())
  in
  command "families" ~doc:"Configuration time across topology families"
    Term.(const run $ int_arg "n" 16 "Switch count.")

(* --- traffic (E6) ------------------------------------------------------ *)

let traffic_cmd =
  let run switches seed fail_at manual_delay horizon scale k out summary_out
      profile an () =
    let profiler = make_profiler profile in
    ignore
      (run_experiment Analysis.E6 an out ~announce_out:false ?summary_out
         ~summary:(fun ppf (r, sc) ->
           Experiment.print_traffic ppf r;
           Option.iter (Experiment.print_traffic_scaling ~show_rate:false ppf) sc)
         (fun telemetry ->
           let r =
             Experiment.traffic_disruption ~seed ~switches ~fail_at_s:fail_at
               ~manual_response_s:manual_delay ~horizon_s:horizon ?telemetry
               ?profiler ()
           in
           Experiment.print_traffic std r;
           print_profiler_report profiler;
           announce out;
           let sc =
             if scale then begin
               let sc = Experiment.traffic_scaling ~seed ~k () in
               Experiment.print_traffic_scaling ~show_rate:true std sc;
               Some sc
             end
             else None
           in
           (r, sc)))
  in
  command "traffic"
    ~doc:
      "E6: measure data-plane traffic disruption (loss, latency, disruption \
       windows) while the E3 link-failure and E4 controller-restart \
       scenarios play out, automatic configuration vs a manual-operation \
       baseline; optionally a fat-tree scaling run"
    Term.(
      const run
      $ switches_arg ~doc:"Ring size (>= 8)." 8
      $ seed_arg
      $ float_arg "fail-at" 40.0 "Virtual second of the sw2-sw3 cut."
      $ float_arg "manual-delay" 25.0
          "Seconds the manual operator takes to respond to the cut."
      $ horizon_arg ~doc:"Sim seconds per run." 90.0
      $ flag_arg "scale"
          "Also run the fat-tree scaling workload (aggregate fabric, >= 10^5 \
           flows) and report events/sec."
      $ int_arg "k" 20 "Fat-tree arity for --scale (even, >= 2)."
      $ out_arg "Write the automatic run's span/event JSONL to $(docv)."
      $ summary_arg "the disruption summary" "E6"
      $ profile_flag $ analysis_term)

(* --- cluster: controller-cluster failover (E9) ---------------------- *)

let cluster_cmd =
  let run switches seed replicas crash_at cut_at recover_at manual_delay
      horizon traffic_start parallel_boot audit out summary_out profile an () =
    let profiler = make_profiler profile in
    let audits (r : Experiment.cluster_result) =
      [ r.cf_auto.cw_audit; r.cf_legacy.cw_audit ]
    in
    ignore
      (run_experiment Analysis.E9 an out ?summary_out
         ~summary:Experiment.print_cluster ~audits (fun telemetry ->
           let r =
             Experiment.cluster_failover ~seed ~switches ~replicas
               ~crash_at_s:crash_at ~cut_at_s:cut_at ~recover_at_s:recover_at
               ~manual_response_s:manual_delay ~horizon_s:horizon
               ~traffic_start_s:traffic_start ~parallel_boot ~audit ?telemetry
               ?profiler ()
           in
           Experiment.print_cluster std r;
           print_audit_runs (audits r);
           print_profiler_report profiler;
           r))
  in
  command "cluster"
    ~doc:
      "E9: replicated RF-controller cluster under live traffic — the acting \
       leader crashes just before a link cut, the survivors elect a new \
       leader and take the switch sessions back, vs. the single-controller \
       baseline waiting for the operator"
    Term.(
      const run
      $ switches_arg ~doc:"Ring size (>= 8)." 28
      $ seed_arg
      $ int_arg "replicas" 3 "RF-controller replicas (>= 3)."
      $ float_arg "crash-at" 30.0
          "Virtual second the acting leader (replica 0) crashes."
      $ float_arg "cut-at" 36.0 "Virtual second of the sw2-sw3 cut."
      $ float_arg "recover-at" 60.0
          "Virtual second the crashed replica rejoins."
      $ float_arg "manual-delay" 25.0
          "Seconds the operator takes to restart the single-controller \
           baseline after its crash."
      $ horizon_arg ~doc:"Sim seconds per run." 120.0
      $ float_arg "traffic-start" 20.0
          "Virtual second the workload starts; raise it (with \
           --parallel-boot) on large rings so provisioning completes first."
      $ int_arg "parallel-boot" 4 "Concurrent VM boots while provisioning."
      $ audit_flag
      $ out_arg "Write the automatic run's span/event JSONL to $(docv)."
      $ summary_arg "the failover summary" "E9"
      $ profile_flag $ analysis_term)

(* --- profile: engine profiler (E10) ---------------------------------- *)

let profile_cmd =
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Entities shown in the load table.")
  in
  let run seed k horizon top entities overhead out summary_out an () =
    ignore
      (run_experiment Analysis.E10 an out ?summary_out
         ~summary:(fun ppf (r, top) ->
           Experiment.print_profile ~wall:false ~top ppf r)
         (fun telemetry ->
           let r =
             Experiment.profile_scaling ~seed ~k ~horizon_s:horizon
               ~measure_overhead:overhead ?telemetry ()
           in
           let top =
             if entities then
               List.length r.Experiment.pf_snapshot.Rf_obs.Profiler.sn_entities
             else top
           in
           Experiment.print_profile ~wall:true ~top std r;
           (r, top)))
  in
  command "profile"
    ~doc:
      "E10: profile the engine across the fat-tree scaling run — per-entity \
       load attribution, event-heap depth/churn and GC telemetry"
    Term.(
      const run $ seed_arg
      $ int_arg "k" 20 "Fat-tree arity of the profiled run (even, >= 2)."
      $ horizon_arg 60.0 $ top_arg
      $ flag_arg "entities" "Show every profiled entity, not just the top N."
      $ flag_arg "measure-overhead"
          "Run the identical workload once more without the profiler and \
           report the instrumentation's wall-clock overhead."
      $ out_arg
          "Write the run's span/event JSONL (profile snapshot included, meta \
           line carrying the profile figures) to $(docv)."
      $ summary_arg "the deterministic profile report" "E10"
      $ analysis_term)

(* --- audit: E12 forwarding-state audit of the fault replays -------- *)

let audit_cmd =
  let run seed e3_switches e4_switches e9_switches replicas out summary_out an
      () =
    ignore
      (run_experiment Analysis.E12 an out ?summary_out
         ~summary:Experiment.print_audit
         ~audits:(fun (r : Experiment.audit_result) ->
           List.concat_map
             (fun (p : Experiment.audit_pair) ->
               [ Some p.ap_auto; Some p.ap_legacy ])
             r.ad_pairs)
         (fun telemetry ->
           let r =
             Experiment.audit_windows ~seed ~e3_switches ~e4_switches
               ~e9_switches ~e9_replicas:replicas ?telemetry ()
           in
           Experiment.print_audit std r;
           r))
  in
  command "audit"
    ~doc:
      "E12: replay the E3 link-cut, E4 restart and E9 leader-crash fault \
       schedules with the continuous forwarding-state auditor attached — \
       loop / blackhole / RIB-FIB / slice-isolation violation windows in \
       virtual time, automatic vs legacy — and exit 5 if any window \
       overlaps the steady-state interval"
    Term.(
      const run $ seed_arg
      $ int_arg "e3-switches" 6 "Ring size of the E3 link-cut replay."
      $ int_arg "e4-switches" 8 "Ring size of the E4 restart replay."
      $ int_arg "e9-switches" 28
          "Ring size of the E9 leader-crash replay (>= 8)."
      $ int_arg "replicas" 3
          "RF-controller replicas of the E9 automatic replay (>= 3)."
      $ out_arg
          "Write the E9 automatic replay's span/event JSONL (including the \
           audit.violation spans) to $(docv)."
      $ summary_arg "the audit summary" "E12"
      $ analysis_term)

(* --- analyze: trace analytics & SLO engine (E7) --------------------- *)

let analyze_cmd =
  let input_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "input" ] ~docv:"FILE"
          ~doc:
            "Analyze an existing telemetry JSONL dump instead of running \
             experiments; the experiment is inferred from the dump's meta \
             line unless --experiment names it.")
  in
  let experiment_arg =
    Arg.(
      value & opt string "all"
      & info [ "experiment" ] ~docv:"EXP"
          ~doc:
            "Which experiment to analyze: e1b, e3, e4, e6, e9, e10, e12 or \
             all (all covers the pinned E7 set, which excludes e9, e10 and \
             e12).")
  in
  let run input experiment seed an flamegraph_json save_baseline_to summary_out
      () =
    let die fmt =
      Format.kasprintf
        (fun msg ->
          Format.eprintf "rfauto analyze: %s@." msg;
          exit 64)
        fmt
    in
    let dumps =
      match input with
      | Some path ->
          let dump = Rf_obs.Ingest.load_file path in
          let exp =
            match
              if experiment = "all" then Analysis.of_dump dump
              else Analysis.of_string experiment
            with
            | Some e -> e
            | None ->
                die
                  "cannot infer the experiment from %s; pass --experiment \
                   e1b|e3|e4|e6|e9|e10|e12"
                  path
          in
          [ (exp, dump) ]
      | None ->
          let exps =
            if experiment = "all" then Analysis.all
            else
              match Analysis.of_string experiment with
              | Some e -> [ e ]
              | None -> die "unknown experiment %s" experiment
          in
          List.map (fun e -> (e, Analysis.run_dump ~seed e)) exps
    in
    let buf = Buffer.create 4096 in
    let ppf = Format.formatter_of_buffer buf in
    (match input with
    | Some path -> Format.fprintf ppf "E7 — trace analytics of %s@." path
    | None ->
        Format.fprintf ppf "E7 — trace analytics & SLO scorecard (seed %d)@."
          seed);
    let all_results =
      List.map
        (fun (exp, dump) ->
          Format.fprintf ppf "@.== %s: %s ==@." (Analysis.name exp)
            (Analysis.describe exp);
          (match Analysis.configure_path dump with
          | Some steps ->
              Format.fprintf ppf "%a" Rf_obs.Critical_path.pp_path steps
          | None -> ());
          let results = Analysis.evaluate exp dump in
          if an.slo then Format.fprintf ppf "@.%a" Analysis.scorecard results;
          (exp, dump, results))
        dumps
    in
    Format.pp_print_flush ppf ();
    let report = Buffer.contents buf in
    print_string report;
    Option.iter (fun path -> write_file path report) summary_out;
    let forest_all =
      List.concat_map (fun (_, dump, _) -> Analysis.forest dump) all_results
    in
    Option.iter (fun path -> write_flamegraph path forest_all) an.flamegraph;
    Option.iter
      (fun path ->
        write_file path (Rf_obs.Flamegraph.d3_json forest_all);
        Format.fprintf std "flamegraph JSON written to %s@." path)
      flamegraph_json;
    let results = List.concat_map (fun (_, _, r) -> r) all_results in
    let label =
      match all_results with
      | [ (exp, _, _) ] -> Analysis.name exp
      | _ -> "all"
    in
    Option.iter
      (fun path -> save_baseline path (Analysis.baseline_run ~label results))
      save_baseline_to;
    gate ~label an results
  in
  command "analyze"
    ~doc:
      "E7: trace analytics & SLO engine — critical paths, flamegraphs, \
       sliding-window SLO verdicts and regression baselines over the \
       experiments' telemetry (consumes a JSONL dump via --input or runs the \
       experiments itself)"
    Term.(
      const run $ input_arg $ experiment_arg $ seed_arg $ analysis_term
      $ file_arg "flamegraph-json"
          "Write the span tree as d3-flamegraph JSON to $(docv)."
      $ file_arg "save-baseline"
          "Write this run's indicators to $(docv) as the new baseline \
           (overwrites; no diff)."
      $ summary_arg "the report" "E7")

let main =
  Cmd.group
    (Cmd.info "rfauto" ~version:"1.0.0"
       ~doc:
         "Automatic configuration of routing control platforms in OpenFlow \
          networks — reproduction experiments")
    [ fig3_cmd; demo_cmd; failure_cmd; restart_cmd; gui_cmd; scaling_cmd; ablation_cmd; families_cmd; inspect_cmd; obs_cmd; trace_cmd; run_cmd; traffic_cmd; cluster_cmd; profile_cmd; audit_cmd; analyze_cmd ]

let () = exit (Cmd.eval main)
