(* The traced repetition: engine-profiler busy time per entity kind, a
   timed RF-client slot, and post-run probes on the converged state.
   Every span is taken from here, around calls into layers' public
   functions; the library itself is unchanged. *)

open Rf_core
module Vm = Rf_routeflow.Vm
module App = Rf_routeflow.Rf_controller_app
module Rf_system = Rf_routeflow.Rf_system
module Profiler = Rf_obs.Profiler

(* --- RF-client slot ------------------------------------------------- *)

type sync_log = { mutable samples : float list; mutable on : bool }

(* Re-install the slot Rf_system gave each VM with the identical call,
   timed. Only calls made while [on] are kept. *)
let time_sync_slot s =
  let log = { samples = []; on = false } in
  Scenario.add_vm_ready_listener s (fun dpid ->
      match Rf_system.vm (Scenario.rf_system s) dpid with
      | Some vm ->
          Vm.set_on_flows_changed vm (fun () ->
              let t0 = Unix.gettimeofday () in
              App.sync_flows (Scenario.rf_app s) ~dpid (Vm.flow_routes vm);
              let dt = Unix.gettimeofday () -. t0 in
              if log.on then log.samples <- dt :: log.samples)
      | None -> ());
  log

let percentile sorted q =
  match Array.length sorted with
  | 0 -> 0.0
  | len -> sorted.(min (len - 1) (int_of_float (q *. float_of_int len)))

let sync_metrics log =
  let a = Array.of_list log.samples in
  Array.sort compare a;
  [
    ("routeflow.sync_calls", float_of_int (Array.length a));
    ("routeflow.sync_s", Array.fold_left ( +. ) 0.0 a);
    ("routeflow.sync_us_p50", 1e6 *. percentile a 0.5);
    ("routeflow.sync_us_p99", 1e6 *. percentile a 0.99);
  ]

(* --- busy time per entity kind -------------------------------------- *)

let kinds =
  [
    "switch";
    "link";
    "host";
    "of_conn";
    "rpc";
    "discovery";
    "scenario";
    "traffic";
    "unattributed";
  ]

(* A switch entity merges its datapath, VM and ospfd. *)
let kind_of = function
  | Profiler.Switch _ -> Some "switch"
  | Link _ -> Some "link"
  | Host _ -> Some "host"
  | Controller _ -> Some "rpc"
  | Idle -> None
  | Unattributed -> Some "unattributed"
  | Component c -> (
      match c with
      | "of-conn" -> Some "of_conn"
      | "rpc-client" | "rpc-server" | "cluster" -> Some "rpc"
      | "discovery" -> Some "discovery"
      | "scenario" | "faults" -> Some "scenario"
      | "traffic" | "measure" -> Some "traffic"
      | _ -> Some "unattributed")

let by_kind (sn : Profiler.snapshot) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (e : Profiler.entity_stat) ->
      match kind_of e.es_kind with
      | Some k ->
          let ev, ns = try Hashtbl.find tbl k with Not_found -> (0, 0) in
          Hashtbl.replace tbl k (ev + e.es_events, ns + e.es_busy_ns)
      | None -> ())
    sn.sn_entities;
  fun k -> try Hashtbl.find tbl k with Not_found -> (0, 0)

(* Busy seconds and events per kind over the measured phase only: the
   difference of two snapshots. *)
let busy_metrics ~before ~after =
  let b = by_kind before and a = by_kind after in
  List.concat_map
    (fun k ->
      let ev0, ns0 = b k and ev1, ns1 = a k in
      [
        ("busy_s." ^ k, float_of_int (ns1 - ns0) /. 1e9);
        ("events." ^ k, float_of_int (ev1 - ev0));
      ])
    kinds

(* --- post-run probes ------------------------------------------------ *)

(* Mean wall cost of one call of [f] over [items], repeating the pass
   until at least [min_s] has elapsed. *)
let mean_cost ?(min_s = 0.05) items f =
  let n = Array.length items in
  if n = 0 then 0.0
  else begin
    let calls = ref 0 in
    let t0 = Unix.gettimeofday () in
    let elapsed () = Unix.gettimeofday () -. t0 in
    while !calls = 0 || elapsed () < min_s do
      Array.iter f items;
      calls := !calls + n
    done;
    elapsed () /. float_of_int !calls
  end

let ip_key dst =
  {
    Rf_openflow.Of_match.in_port = 1;
    dl_src = Rf_packet.Mac.make_local 1;
    dl_dst = Rf_packet.Mac.make_local 2;
    dl_vlan = 0xffff;
    dl_pcp = 0;
    dl_type = Rf_packet.Ethernet.ethertype_ipv4;
    nw_tos = 0;
    nw_proto = 17;
    nw_src = Rf_packet.Ipv4_addr.of_octets 10 255 255 1;
    nw_dst = dst;
    tp_src = 5004;
    tp_dst = 5006;
  }

let probes s =
  let rf = Scenario.rf_system s and app = Scenario.rf_app s in
  let vms = Array.of_list (Rf_system.vms rf) in
  let ospfds =
    Array.to_list vms
    |> List.filter_map (fun (_, vm) -> Vm.ospfd vm)
    |> Array.of_list
  in
  let synced = Array.map (fun (dpid, vm) -> (dpid, Vm.flow_routes vm)) vms in
  let tables =
    Array.of_list
      (List.map
         (fun (_, dp) -> Rf_net.Datapath.flow_table dp)
         (Rf_net.Network.datapaths (Scenario.network s)))
  in
  let keys =
    Array.to_list synced
    |> List.concat_map (fun (_, routes) ->
           List.map (fun (fr : Vm.flow_route) -> fr.fr_prefix) routes)
    |> List.sort_uniq Rf_packet.Ipv4_addr.Prefix.compare
    |> List.map (fun p -> ip_key (Rf_packet.Ipv4_addr.Prefix.host p 1))
    |> Array.of_list
  in
  let lookups =
    Array.concat
      (Array.to_list
         (Array.map (fun tbl -> Array.map (fun k -> (tbl, k)) keys) tables))
  in
  let now = Rf_sim.Engine.now (Scenario.engine s) in
  let msgs =
    Array.to_list synced
    |> List.concat_map (fun (dpid, _) -> App.installed_flows app dpid)
    |> List.map (fun (fr : Vm.flow_route) ->
           Rf_openflow.Of_msg.msg
             (Rf_openflow.Of_msg.Flow_mod
                (Rf_openflow.Of_msg.flow_add
                   ~priority:
                     (App.priority_of_prefix_len
                        (Rf_packet.Ipv4_addr.Prefix.length fr.fr_prefix))
                   (App.match_of_route fr) (Workload.expected_actions fr))))
    |> Array.of_list
  in
  let wires = Array.map Rf_openflow.Of_codec.to_wire msgs in
  Array.iter
    (fun w ->
      match Rf_openflow.Of_codec.of_wire w with
      | Ok _ -> ()
      | Error e -> failwith ("flow-mod decode: " ^ e))
    wires;
  let autoconf = Scenario.autoconfig s in
  [
    ( "probe.spf_full_us",
      1e6
      *. mean_cost ospfds (fun o -> ignore (Rf_routing.Ospfd.spf_now_full o))
    );
    ( "probe.sync_noop_us",
      1e6
      *. mean_cost synced (fun (dpid, routes) ->
             App.sync_flows app ~dpid routes) );
    ( "probe.flow_lookup_ns",
      1e9
      *. mean_cost lookups (fun (tbl, k) ->
             ignore (Rf_net.Flow_table.lookup tbl k)) );
    ( "probe.flow_expire_us",
      1e6
      *. mean_cost tables (fun tbl ->
             ignore (Rf_net.Flow_table.expire tbl ~now)) );
    ( "probe.flow_mod_encode_ns",
      1e9 *. mean_cost msgs (fun m -> ignore (Rf_openflow.Of_codec.to_wire m))
    );
    ( "probe.flow_mod_decode_ns",
      1e9 *. mean_cost wires (fun w -> ignore (Rf_openflow.Of_codec.of_wire w))
    );
    ( "probe.snapshot_us",
      1e6
      *. mean_cost [| () |] (fun () -> ignore (Autoconfig.snapshot autoconf))
    );
  ]
