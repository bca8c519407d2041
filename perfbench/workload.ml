(* The three end-to-end workloads: build a scenario, drive its measured
   phase, gate its outputs and read every layer's public counters. *)

open Rf_core
module Vtime = Rf_sim.Vtime
module Engine = Rf_sim.Engine
module Vm = Rf_routeflow.Vm
module App = Rf_routeflow.Rf_controller_app
module Rf_system = Rf_routeflow.Rf_system
module Measure = Rf_traffic.Measure

type kind = Ring_serial | Fattree_burst | Ring_traffic

type t = { name : string; kind : kind; size : int }
(** [size] is the ring length, or the fat-tree arity [k]. *)

let name_of = function
  | Ring_serial -> "ring_serial"
  | Fattree_burst -> "fattree_burst"
  | Ring_traffic -> "ring_traffic"

let make kind size = { name = name_of kind; kind; size }

let full = [ make Ring_serial 100; make Fattree_burst 6; make Ring_traffic 16 ]

let tiny = [ make Ring_serial 8; make Fattree_burst 4; make Ring_traffic 8 ]

(* ring_traffic timeline, absolute virtual seconds: set-up converges
   before [traffic_start_s]; CBR probes run until [traffic_stop_s]; the
   phase ends once the last probe has had [loss_timeout_s] to arrive. *)
let traffic_start_s = 10.0

let cut_at_s = 40.0

let restore_at_s = 60.0

let traffic_stop_s = 70.0

let loss_timeout_s = 2.0

let traffic_end_s = traffic_stop_s +. loss_timeout_s +. 1.0

let traffic_capacity =
  { Rf_net.Link.bandwidth_bps = 100_000_000; queue_frames = 64 }

(* The ring link that is cut. Cutting 13-14, 14-15 or 15-16 of the
   16-switch ring instead leaves traffic unrouted for the whole cut
   (about 21 s of disruption, not 1 s): an open defect, see README.md. *)
let cut_link = (2L, 3L)

let host_name i = Printf.sprintf "h%02d" i

let topology w =
  match w.kind with
  | Ring_serial -> Rf_net.Topo_gen.ring w.size
  | Fattree_burst -> Rf_net.Topo_gen.fat_tree w.size
  | Ring_traffic ->
      let topo = Rf_net.Topo_gen.ring w.size in
      for i = 1 to w.size do
        Rf_net.Topology.add_host topo (host_name i);
        ignore
          (Rf_net.Topology.connect topo
             (Rf_net.Topology.Host (host_name i))
             (Rf_net.Topology.Switch (Int64.of_int i)))
      done;
      topo

let switches w =
  match w.kind with
  | Ring_serial | Ring_traffic -> w.size
  | Fattree_burst -> 5 * w.size * w.size / 4

let options w ~seed ~profiler =
  let base = { Scenario.default_options with seed; profiler } in
  let rf = base.Scenario.rf_params in
  match w.kind with
  | Ring_serial -> base
  | Fattree_burst ->
      {
        base with
        rf_params = { rf with Rf_system.parallel_boot = switches w };
      }
  | Ring_traffic ->
      let a, b = cut_link in
      {
        base with
        rf_params =
          {
            rf with
            Rf_system.vm_boot_time = Vtime.span_s 2.0;
            parallel_boot = w.size;
          };
        link_capacity = Some traffic_capacity;
        faults =
          Rf_sim.Faults.(
            plan
              [ link_down ~at_s:cut_at_s a b; link_up ~at_s:restore_at_s a b ]);
      }

(* Virtual time at which the measured phase ends at the latest: for the
   control-plane workloads, every boot plus two minutes of routing tail. *)
let budget_s w =
  let boot = Vtime.span_to_s Rf_system.default_params.Rf_system.vm_boot_time in
  match w.kind with
  | Ring_serial -> (boot *. float_of_int w.size) +. 120.0
  | Fattree_burst -> boot +. 120.0
  | Ring_traffic -> traffic_end_s

(* --- correctness ---------------------------------------------------- *)

let expected_actions (fr : Vm.flow_route) =
  Rf_openflow.
    [
      Of_action.Set_dl_src fr.Vm.fr_src_mac;
      Of_action.Set_dl_dst fr.Vm.fr_dst_mac;
      Of_action.output fr.Vm.fr_port;
    ]

(* The RF-controller believes it installed exactly the VM's exported
   routes, and the switch's flow table really holds each of them. *)
let switch_synced s dpid vm =
  let routes = Vm.flow_routes vm in
  routes = App.installed_flows (Scenario.rf_app s) dpid
  &&
  let table =
    Rf_net.Datapath.flow_table
      (Rf_net.Network.datapath (Scenario.network s) dpid)
  in
  let held = Hashtbl.create 64 in
  List.iter
    (fun (e : Rf_net.Flow_table.entry) ->
      Hashtbl.replace held
        (Rf_openflow.Of_match.to_wire e.e_match, e.e_priority)
        e.e_actions)
    (Rf_net.Flow_table.entries table);
  List.for_all
    (fun (fr : Vm.flow_route) ->
      let prio =
        App.priority_of_prefix_len
          (Rf_packet.Ipv4_addr.Prefix.length fr.fr_prefix)
      in
      let key = (Rf_openflow.Of_match.to_wire (App.match_of_route fr), prio) in
      Hashtbl.find_opt held key = Some (expected_actions fr))
    routes

(* Switches that are not configured, routed to every subnet and synced. *)
let unsynced_switches s =
  let rf = Scenario.rf_system s in
  let total = Scenario.total_subnets s in
  List.filter
    (fun (dpid, _) ->
      match Rf_system.vm rf dpid with
      | Some vm ->
          not
            (Rf_system.is_configured rf dpid
            && Rf_routing.Rib.size (Vm.rib vm) >= total
            && switch_synced s dpid vm)
      | None -> true)
    (Rf_net.Network.datapaths (Scenario.network s))
  |> List.length

let converged_and_synced s =
  Scenario.routing_converged_at s <> None && unsynced_switches s = 0

let step s = Scenario.run_for s (Vtime.span_s 1.0)

let measure_step = Vtime.span_ms 100

(* Advance by [step] (one virtual second by default) until [stop] holds
   or the clock reaches [until_s]. *)
let rec run_until ?(step = step) s ~until_s ~stop =
  if stop () then true
  else if Vtime.to_s (Engine.now (Scenario.engine s)) >= until_s then false
  else begin
    step s;
    run_until ~step s ~until_s ~stop
  end

(* --- one repetition ------------------------------------------------- *)

type rep = {
  scenario : Scenario.t;
  measure : Measure.t option;
  setup_s : float;
  wall_s : float;
  events : int;  (** executed in the measured phase *)
  heap_pushes : int;
  minor_words : float;
  alloc_words : float;
  major_collections : int;
  attempted : int;
  failed : int;
  ok_ratio : float;
  converged_vs : float;
}

let traffic_spec w =
  let half = w.size / 2 in
  let pairs =
    List.init w.size (fun i ->
        (host_name (i + 1), host_name (((i + half) mod w.size) + 1)))
  in
  Rf_traffic.Spec.make ~loss_timeout_s
    [
      Rf_traffic.Spec.cls ~name:"cbr" ~payload:64 ~port:5006
        ~start_s:traffic_start_s ~pairs
        (Rf_traffic.Spec.Cbr
           {
             rate_pps = 200.0;
             duration_s = traffic_stop_s -. traffic_start_s;
           });
    ]

(* Probes may be lost only while the cut is in force or its repair is
   still propagating. *)
let loss_confined m =
  match Measure.disruption_window m with
  | None -> true
  | Some (a, b) ->
      a >= cut_at_s -. loss_timeout_s && b <= restore_at_s +. loss_timeout_s

(* Scenario.build, plus convergence and the traffic generator for
   ring_traffic. Returns the scenario, whether set-up met its gate, the
   traffic measurement plane, and the host seconds it took. *)
let setup ?profiler ~on_build w ~seed =
  let topo = topology w in
  let t0 = Unix.gettimeofday () in
  let s = Scenario.build ~options:(options w ~seed ~profiler) topo in
  on_build s;
  let engine = Scenario.engine s in
  let ok, measure =
    match w.kind with
    | Ring_serial | Fattree_burst -> (true, None)
    | Ring_traffic ->
        let m = Measure.create engine ~loss_timeout_s () in
        let fabric =
          Rf_traffic.Generator.live_fabric m
            ~hosts:(Rf_net.Network.hosts (Scenario.network s))
        in
        ignore
          (Rf_traffic.Generator.start engine
             ~rng:(Rf_sim.Rng.create (seed + 1009))
             ~measure:m ~fabric (traffic_spec w));
        let ok =
          run_until s ~until_s:traffic_start_s ~stop:(fun () ->
              converged_and_synced s)
        in
        let rest = traffic_start_s -. Vtime.to_s (Engine.now engine) in
        if rest > 0.0 then Scenario.run_for s (Vtime.span_s rest);
        (ok, Some m)
  in
  (s, ok, measure, Unix.gettimeofday () -. t0)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* One repetition: set up at least [setups] times and until the set-ups
   have taken [setup_budget_s] host seconds (their median time is
   [setup_s]), then measure the last one and gate its outputs.
   [between_steps] runs after every set-up and every measured engine
   step, outside the clocks. *)
let run ?profiler ?(setups = 1) ?(setup_budget_s = 0.0)
    ?(on_build = fun _ -> ()) ?(before_measure = fun _ -> ())
    ?(between_steps = fun () -> ()) w ~seed =
  let rec trials times spent =
    let ((_, _, _, dt) as last) = setup ?profiler ~on_build w ~seed in
    between_steps ();
    let times = dt :: times and spent = spent +. dt in
    if List.length times >= setups && spent >= setup_budget_s then
      (last, median times)
    else trials times spent
  in
  let (s, setup_ok, measure, _), setup_s = trials [] 0.0 in
  (* Every measured phase starts from a compacted heap, however many
     set-ups preceded it. *)
  Gc.compact ();
  let engine = Scenario.engine s in
  let n = switches w in
  before_measure s;
  let ev0 = Engine.events_executed engine in
  let push0 = Engine.heap_pushes engine in
  let gc0 = Gc.quick_stat () in
  (* [wall_s] sums the engine steps only: the stop test and
     [between_steps] run outside the clock. Short steps let
     [between_steps] sample the host all through the phase. *)
  let wall_s = ref 0.0 in
  let timed_step s =
    let t = Unix.gettimeofday () in
    Scenario.run_for s measure_step;
    wall_s := !wall_s +. (Unix.gettimeofday () -. t);
    between_steps ()
  in
  let stop () = measure = None && converged_and_synced s in
  let done_ok = run_until ~step:timed_step s ~until_s:(budget_s w) ~stop in
  let wall_s = !wall_s in
  let gc1 = Gc.quick_stat () in
  let events = Engine.events_executed engine - ev0 in
  let minor_words = gc1.minor_words -. gc0.minor_words in
  let alloc_words =
    minor_words +. gc1.major_words -. gc0.major_words
    -. (gc1.promoted_words -. gc0.promoted_words)
  in
  let converged_vs =
    match Scenario.routing_converged_at s with
    | Some v -> Vtime.to_s v
    | None -> nan
  in
  let attempted, failed, ok_ratio =
    match measure with
    | None ->
        let bad = if done_ok then 0 else unsynced_switches s in
        (n, bad, float_of_int (n - bad) /. float_of_int n)
    | Some m ->
        Measure.finalize m;
        let offered = Measure.total_offered m
        and delivered = Measure.total_delivered m
        and lost = Measure.total_lost m in
        let bad =
          (if setup_ok then 0 else 1)
          + (if offered = delivered + lost then 0 else 1)
          + if loss_confined m then 0 else 1
        in
        (* every probe is a checked outcome, plus the three gates *)
        let ratio = float_of_int delivered /. float_of_int (max 1 offered) in
        (offered + 3, bad, ratio)
  in
  {
    scenario = s;
    measure;
    setup_s;
    wall_s;
    events;
    heap_pushes = Engine.heap_pushes engine - push0;
    minor_words;
    alloc_words;
    major_collections = gc1.major_collections - gc0.major_collections;
    attempted;
    failed;
    ok_ratio;
    converged_vs;
  }

(* --- counters ------------------------------------------------------- *)

let sum_by_name metrics =
  Rf_obs.Metrics.fold metrics ~init:[]
    ~counter:(fun acc ~name ~labels:_ v ->
      let prev = try List.assoc name acc with Not_found -> 0 in
      (name, prev + v) :: List.remove_assoc name acc)
    ~gauge:(fun acc ~name:_ ~labels:_ _ -> acc)

(* Public counters of every layer, read after the measured phase. All
   are virtual-clock quantities, identical on every repeat of a seed. *)
let counters w r =
  let s = r.scenario in
  let reg = sum_by_name (Engine.metrics (Scenario.engine s)) in
  let c name = try List.assoc name reg with Not_found -> 0 in
  let n = float_of_int (switches w) in
  let vms = Rf_system.vms (Scenario.rf_system s) in
  let ospfds = List.filter_map (fun (_, vm) -> Vm.ospfd vm) vms in
  let dps = List.map snd (Rf_net.Network.datapaths (Scenario.network s)) in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let fv = Scenario.flowvisor s in
  let fv_sum f = sum (f fv) (Rf_flowvisor.Flowvisor.slices fv) in
  let app = Scenario.rf_app s and disc = Scenario.discovery s in
  let spf = sum Rf_routing.Ospfd.spf_runs ospfds in
  let mods = App.flow_mods_sent app in
  let fwd = sum Rf_net.Datapath.packets_forwarded dps in
  let missed = sum Rf_net.Datapath.packets_missed dps in
  let traffic f = match r.measure with Some m -> f m | None -> 0 in
  let i name v = (name, float_of_int v) in
  [
    i "sim.heap_peak" (Engine.heap_peak (Scenario.engine s));
    i "sim.heap_pushes" r.heap_pushes;
    i "routing.spf_runs" spf;
    ("routing.spf_runs_per_switch", float_of_int spf /. n);
    i "routing.floods" (c "ospf_floods_total");
    i "routing.hellos" (c "ospf_hellos_total");
    i "routing.lsdb_max"
      (List.fold_left
         (fun acc o -> max acc (Rf_routing.Ospfd.lsdb_size o))
         0 ospfds);
    i "routing.rib_routes"
      (sum (fun (_, vm) -> Rf_routing.Rib.size (Vm.rib vm)) vms);
    i "routeflow.flow_mods" mods;
    ("routeflow.flow_mods_per_switch", float_of_int mods /. n);
    i "routeflow.flow_exports" (c "vm_flow_exports_total");
    i "routeflow.packet_ins" (App.packet_ins_relayed app);
    i "routeflow.packet_outs" (App.packet_outs_sent app);
    i "routeflow.slow_path" (c "vm_slow_path_total");
    i "net.frames_forwarded" fwd;
    i "net.frames_missed" missed;
    ( "net.fast_path_share",
      float_of_int fwd /. float_of_int (max 1 (fwd + missed)) );
    i "net.queue_dropped"
      (Rf_net.Network.queue_dropped_frames (Scenario.network s));
    i "net.flow_entries"
      (sum
         (fun dp -> Rf_net.Flow_table.size (Rf_net.Datapath.flow_table dp))
         dps);
    i "flowvisor.to_slice" (fv_sum Rf_flowvisor.Flowvisor.messages_to_slice);
    i "flowvisor.from_slice"
      (fv_sum Rf_flowvisor.Flowvisor.messages_from_slice);
    i "flowvisor.denied" (fv_sum Rf_flowvisor.Flowvisor.denied_flow_mods);
    i "controller.lldp_probes" (Rf_controller.Discovery.probes_sent disc);
    i "controller.lldp_rx" (Rf_controller.Discovery.lldp_received disc);
    i "rpc.sent" (c "rpc_client_sent_total");
    i "rpc.retx" (c "rpc_client_retx_total");
    i "rpc.handled" (c "rpc_server_handled_total");
    i "rpc.dups" (c "rpc_server_dups_total");
    i "rpc.gave_up" (c "rpc_client_gave_up_total");
    i "traffic.offered" (traffic Measure.total_offered);
    i "traffic.delivered" (traffic Measure.total_delivered);
    i "traffic.lost" (traffic Measure.total_lost);
  ]

(* ring_traffic's virtual-time outcomes; zero on the control-plane
   workloads, which carry no traffic. *)
let traffic_outcomes r =
  let disruption, p50, p99 =
    match r.measure with
    | None -> (0.0, 0.0, 0.0)
    | Some m -> (
        match Measure.summaries m with
        | { Measure.cs_latency = Some l; _ } :: _ ->
            ( Measure.disruption_seconds m,
              1000.0 *. l.Rf_sim.Stats.p50,
              1000.0 *. l.p99 )
        | _ -> (Measure.disruption_seconds m, 0.0, 0.0))
  in
  [
    ("traffic.disruption_vs", disruption);
    ("traffic.latency_p50_vms", p50);
    ("traffic.latency_p99_vms", p99);
  ]

(* Digest of everything a seed determines: virtual-time outcomes, the
   full counter registry, per-switch flow state and the traffic
   summary. Identical across repeats, and with or without tracing. *)
let digest w r =
  let s = r.scenario in
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  add "%s/%d converged=%.6f ok=%.9f attempted=%d failed=%d events=%d\n" w.name
    w.size r.converged_vs r.ok_ratio r.attempted r.failed r.events;
  List.iter
    (fun (k, v) -> add "%s=%d\n" k v)
    (sum_by_name (Engine.metrics (Scenario.engine s)));
  List.iter
    (fun (k, v) -> add "%s=%.9g\n" k v)
    (counters w r @ traffic_outcomes r);
  List.iter
    (fun (dpid, vm) ->
      let routes =
        List.map (Format.asprintf "%a" Vm.pp_flow_route) (Vm.flow_routes vm)
      in
      add "sw%Ld %s\n" dpid
        (Digest.to_hex (Digest.string (String.concat ";" routes))))
    (Rf_system.vms (Scenario.rf_system s));
  Digest.to_hex (Digest.string (Buffer.contents b))
