open Rf_packet
open Rf_routing

type pending_packet = { pp_ipv4 : Ipv4.t }

type flow_route = {
  fr_prefix : Ipv4_addr.Prefix.t;
  fr_port : int;
  fr_src_mac : Mac.t;
  fr_dst_mac : Mac.t;
}

let compare_flow a b =
  match Ipv4_addr.Prefix.compare a.fr_prefix b.fr_prefix with
  | 0 -> (
      match Int.compare a.fr_port b.fr_port with
      | 0 -> (
          match Mac.compare a.fr_src_mac b.fr_src_mac with
          | 0 -> Mac.compare a.fr_dst_mac b.fr_dst_mac
          | c -> c)
      | c -> c)
  | c -> c

module Flow_map = Map.Make (struct
  type t = flow_route

  let compare = compare_flow
end)

module Prefix_map = Map.Make (Ipv4_addr.Prefix)

type t = {
  engine : Rf_sim.Engine.t;
  dpid : int64;
  entity : Rf_obs.Profiler.entity;
  hostname : string;
  nics : Iface.t array;
  zebra : Zebra.t;
  mutable ospfd : Ospfd.t option;
  mutable ripd : Ripd.t option;
  mutable bgpd : Bgpd.t option;
  arp : (int * Ipv4_addr.t, Mac.t) Hashtbl.t;
  arp_confirmed : (int * Ipv4_addr.t, Rf_sim.Vtime.t) Hashtbl.t;
  arp_probing : (int * Ipv4_addr.t, int) Hashtbl.t;  (** probes left *)
  pending : (int * Ipv4_addr.t, pending_packet list ref) Hashtbl.t;
  configs : (string, string) Hashtbl.t;
  mutable ospf_enabled : string list;  (** NIC names already under OSPF *)
  mutable rip_enabled : string list;
  mutable last_flows : flow_route list;
  mutable on_flows_changed : unit -> unit;
  mutable flow_listeners : (unit -> unit) list;  (** extra observers *)
  mutable flows_dirty : bool;
  (* Incremental export: prefixes whose selected route changed since
     the last export, or [dirty_all] after an ARP or address change,
     which can move the resolution of every route. *)
  dirty_prefixes : (Ipv4_addr.Prefix.t, unit) Hashtbl.t;
  mutable dirty_all : bool;
  (* Per selected prefix, the flows it exports, sorted (many host flows
     for a connected route, at most one otherwise). *)
  slots : (Ipv4_addr.Prefix.t, flow_route list) Hashtbl.t;
  mutable exported : int Flow_map.t;  (* flow -> contributing slots *)
  (* Per prefix whose next hop is unresolved, the (port, next hop) that
     every export ARPs for. *)
  mutable arp_wanted : (int * Ipv4_addr.t) Prefix_map.t;
  (* Statics resolved through the RIB (no interface): any RIB change
     can move them, so every export re-resolves them. *)
  recursive : (Ipv4_addr.Prefix.t, unit) Hashtbl.t;
  mutable slow_forwarded : int;
  m_slow_path : Rf_obs.Metrics.counter;
  m_flow_exports : Rf_obs.Metrics.counter;
}

let arp_retry = Rf_sim.Vtime.span_s 1.0

let max_arp_retries = 30

let dpid t = t.dpid

let entity t = t.entity

let hostname t = t.hostname

let n_ports t = Array.length t.nics

let nic t port =
  if port < 1 || port > Array.length t.nics then
    invalid_arg (Printf.sprintf "Vm.nic: port %d out of range" port);
  t.nics.(port - 1)

let nic_by_name t name =
  Array.find_opt (fun i -> String.equal (Iface.name i) name) t.nics

let zebra t = t.zebra

let rib t = Zebra.rib t.zebra

let ospfd t = t.ospfd

let ripd t = t.ripd

let bgpd t = t.bgpd

let config_file t name = Hashtbl.find_opt t.configs name

(* --- flow export --------------------------------------------------- *)

let port_of_iface_name t name =
  let result = ref None in
  Array.iteri
    (fun i ifc -> if String.equal (Iface.name ifc) name then result := Some (i + 1))
    t.nics;
  !result

let send_arp_request t port target =
  let ifc = nic t port in
  if Iface.is_addressed ifc then
    Iface.send ifc
      (Packet.arp ~src:(Iface.mac ifc) ~dst:Mac.broadcast
         (Arp.request ~sender_mac:(Iface.mac ifc) ~sender_ip:(Iface.ip ifc)
            ~target_ip:target))

(* Resolve a route to (output port, next-hop address). Routes without
   an interface (statics) resolve recursively through the connected
   route covering their next hop, as zebra does. *)
let resolve_route t (r : Rib.route) =
  match r.Rib.r_next_hop with
  | None -> Option.map (fun p -> (p, None)) (port_of_iface_name t r.Rib.r_iface)
  | Some nh -> (
      if not (String.equal r.Rib.r_iface "") then
        Option.map (fun p -> (p, Some nh)) (port_of_iface_name t r.Rib.r_iface)
      else
        match Rib.lookup (rib t) nh with
        | Some { Rib.r_proto = Rib.Connected; r_iface; _ } ->
            Option.map (fun p -> (p, Some nh)) (port_of_iface_name t r_iface)
        | Some _ | None -> None)

(* What one selected route exports: its flows, and the (port, next
   hop) to ARP for when that next hop is not resolved yet. *)
let route_exports t (r : Rib.route) =
  match r.r_proto with
  | Rib.Connected -> (
      match port_of_iface_name t r.r_iface with
      | None -> ([], None)
      | Some port ->
          let ifc = nic t port in
          let hosts =
            Hashtbl.fold
              (fun (p, ip) mac acc ->
                if
                  p = port
                  && Ipv4_addr.Prefix.mem ip r.r_prefix
                  && not (Ipv4_addr.equal ip (Iface.ip ifc))
                then
                  {
                    fr_prefix = Ipv4_addr.Prefix.make ip 32;
                    fr_port = port;
                    fr_src_mac = Iface.mac ifc;
                    fr_dst_mac = mac;
                  }
                  :: acc
                else acc)
              t.arp []
          in
          (hosts, None))
  | Rib.Static | Rib.Ospf | Rib.Rip | Rib.Bgp -> (
      match resolve_route t r with
      | Some (port, Some nh) -> (
          match Hashtbl.find_opt t.arp (port, nh) with
          | Some mac ->
              ( [
                  {
                    fr_prefix = r.r_prefix;
                    fr_port = port;
                    fr_src_mac = Iface.mac (nic t port);
                    fr_dst_mac = mac;
                  };
                ],
                None )
          | None -> ([], Some (port, nh)))
      | Some (_, None) | None -> ([], None))

let compute_flows_full t =
  let flows =
    List.concat_map
      (fun r ->
        let flows, arp = route_exports t r in
        (* Resolve the next hop over the virtual link; the export re-runs
           when the reply is learned. *)
        Option.iter (fun (port, nh) -> send_arp_request t port nh) arp;
        flows)
      (Rib.selected (rib t))
  in
  List.sort_uniq compare_flow flows

let same_flow a b = compare_flow a b = 0

(* Two selected routes can export the same flow (a connected subnet's
   host flow and a /32 route through that host), hence the counts. *)
let contribute t f =
  t.exported <-
    Flow_map.update f
      (function None -> Some 1 | Some n -> Some (n + 1))
      t.exported

let retract t f =
  t.exported <-
    Flow_map.update f
      (function Some 1 | None -> None | Some n -> Some (n - 1))
      t.exported

let is_recursive (r : Rib.route) =
  r.r_proto <> Rib.Connected && r.r_next_hop <> None && String.equal r.r_iface ""

(* Re-evaluate one prefix against the RIB's current selection. *)
let refresh_slot t prefix =
  let route = Rib.best (rib t) prefix in
  let flows, arp =
    match route with Some r -> route_exports t r | None -> ([], None)
  in
  let flows = List.sort compare_flow flows in
  let old = Option.value (Hashtbl.find_opt t.slots prefix) ~default:[] in
  if not (List.equal same_flow old flows) then begin
    List.iter (retract t) old;
    List.iter (contribute t) flows
  end;
  (match route with
  | Some _ -> Hashtbl.replace t.slots prefix flows
  | None -> Hashtbl.remove t.slots prefix);
  t.arp_wanted <-
    (match arp with
    | Some a -> Prefix_map.add prefix a t.arp_wanted
    | None -> Prefix_map.remove prefix t.arp_wanted);
  match route with
  | Some r when is_recursive r -> Hashtbl.replace t.recursive prefix ()
  | Some _ | None -> Hashtbl.remove t.recursive prefix

(* The incremental twin of [compute_flows_full]: re-evaluates only the
   dirty prefixes (every prefix after [dirty_all]) plus the recursive
   statics, then sends the same ARP requests, in the same prefix order,
   as the full pass would. Returns the new export when it changed. *)
let export t =
  let mark p = Hashtbl.replace t.dirty_prefixes p () in
  if t.dirty_all then begin
    t.dirty_all <- false;
    Hashtbl.iter (fun p _ -> mark p) t.slots;
    List.iter (fun (r : Rib.route) -> mark r.r_prefix) (Rib.selected (rib t))
  end;
  Hashtbl.iter (fun p () -> mark p) t.recursive;
  let dirty = Hashtbl.fold (fun p () acc -> p :: acc) t.dirty_prefixes [] in
  Hashtbl.reset t.dirty_prefixes;
  List.iter (refresh_slot t) dirty;
  Prefix_map.iter (fun _ (port, nh) -> send_arp_request t port nh) t.arp_wanted;
  let flows = List.rev (Flow_map.fold (fun f _ acc -> f :: acc) t.exported []) in
  if List.equal same_flow flows t.last_flows then None else Some flows

let refresh_flows t =
  if not t.flows_dirty then begin
    t.flows_dirty <- true;
    (* Debounce: RIB replacement fires one event per route. *)
    ignore
      (Rf_sim.Engine.schedule ~entity:t.entity t.engine
         (Rf_sim.Vtime.span_ms 10) (fun () ->
           t.flows_dirty <- false;
           match export t with
           | None -> ()
           | Some flows ->
               t.last_flows <- flows;
               Rf_obs.Metrics.incr t.m_flow_exports;
               t.on_flows_changed ();
               List.iter (fun f -> f ()) (List.rev t.flow_listeners)))
  end

let flow_routes t = t.last_flows

let set_on_flows_changed t f = t.on_flows_changed <- f

let add_on_flows_changed t f = t.flow_listeners <- f :: t.flow_listeners

(* --- data plane ----------------------------------------------------- *)

let learn t port ip mac =
  if not (Ipv4_addr.equal ip Ipv4_addr.any) then begin
    let key = (port, ip) in
    let known = Hashtbl.find_opt t.arp key in
    Hashtbl.replace t.arp_confirmed key (Rf_sim.Engine.now t.engine);
    Hashtbl.remove t.arp_probing key;
    if known <> Some mac then begin
      Hashtbl.replace t.arp key mac;
      t.dirty_all <- true;
      refresh_flows t
    end;
    match Hashtbl.find_opt t.pending key with
    | Some queue ->
        Hashtbl.remove t.pending key;
        let ifc = nic t port in
        List.iter
          (fun pp ->
            t.slow_forwarded <- t.slow_forwarded + 1;
            Rf_obs.Metrics.incr t.m_slow_path;
            Iface.send ifc
              (Packet.ipv4 ~src_mac:(Iface.mac ifc) ~dst_mac:mac pp.pp_ipv4))
          (List.rev !queue)
    | None -> ()
  end

let rec arp_retry_tick t key retries =
  if Hashtbl.mem t.pending key then begin
    let port, target = key in
    if retries <= 0 then Hashtbl.remove t.pending key
    else begin
      send_arp_request t port target;
      ignore
        (Rf_sim.Engine.schedule ~entity:t.entity t.engine arp_retry (fun () ->
             arp_retry_tick t key (retries - 1)))
    end
  end

let enqueue_pending t port next_hop ipv4 =
  let key = (port, next_hop) in
  match Hashtbl.find_opt t.pending key with
  | Some queue -> queue := { pp_ipv4 = ipv4 } :: !queue
  | None ->
      Hashtbl.replace t.pending key (ref [ { pp_ipv4 = ipv4 } ]);
      send_arp_request t port next_hop;
      ignore
        (Rf_sim.Engine.schedule ~entity:t.entity t.engine arp_retry (fun () ->
             arp_retry_tick t key max_arp_retries))

let forward_ipv4 t (ip : Ipv4.t) =
  match Ipv4.decrement_ttl ip with
  | None -> ()
  | Some ip -> (
      match Rib.lookup (rib t) ip.dst with
      | None -> ()
      | Some route -> (
          match resolve_route t route with
          | None -> ()
          | Some (port, nh) -> (
              let next_hop = match nh with Some nh -> nh | None -> ip.dst in
              let ifc = nic t port in
              match Hashtbl.find_opt t.arp (port, next_hop) with
              | Some mac ->
                  t.slow_forwarded <- t.slow_forwarded + 1;
                  Rf_obs.Metrics.incr t.m_slow_path;
                  Iface.send ifc
                    (Packet.ipv4 ~src_mac:(Iface.mac ifc) ~dst_mac:mac ip)
              | None -> enqueue_pending t port next_hop ip)))

(* Whether [dst] is the configured address of nics.(i) or a later NIC:
   a top-level loop rather than [Array.exists] with a closure, so the
   per-frame local-delivery check allocates nothing. *)
let rec local_from nics dst i =
  i < Array.length nics
  && ((Iface.is_addressed nics.(i) && Ipv4_addr.equal (Iface.ip nics.(i)) dst)
     || local_from nics dst (i + 1))

let handle_frame t port (pkt : Packet.t) =
  let ifc = nic t port in
  match pkt.l3 with
  | Packet.Arp a ->
      if Iface.is_addressed ifc && Ipv4_addr.Prefix.mem a.sender_ip (Iface.prefix ifc)
      then learn t port a.sender_ip a.sender_mac;
      (match a.op with
      | Arp.Request
        when Iface.is_addressed ifc && Ipv4_addr.equal a.target_ip (Iface.ip ifc)
        ->
          Iface.send ifc
            (Packet.arp ~src:(Iface.mac ifc) ~dst:a.sender_mac
               (Arp.reply ~sender_mac:(Iface.mac ifc)
                  ~sender_ip:(Iface.ip ifc) ~target_mac:a.sender_mac
                  ~target_ip:a.sender_ip))
      | Arp.Request | Arp.Reply -> ())
  | Packet.Ipv4 (ip, l4) ->
      (* Passive neighbour learning from any on-subnet source. *)
      if Iface.is_addressed ifc && Ipv4_addr.Prefix.mem ip.src (Iface.prefix ifc)
      then learn t port ip.src pkt.eth.src;
      if local_from t.nics ip.dst 0 then begin
        (* Local delivery: the guest answers pings; OSPF packets are
           consumed by ospfd's own receiver. *)
        match l4 with
        | Packet.Icmp (Icmp.Echo_request { ident; seq; payload }) ->
            Iface.send ifc
              (Packet.icmp ~src_mac:(Iface.mac ifc) ~dst_mac:pkt.eth.src
                 ~src_ip:ip.dst ~dst_ip:ip.src
                 (Icmp.Echo_reply { ident; seq; payload }))
        | Packet.Icmp _ | Packet.Udp _ | Packet.Tcp _ | Packet.Ospf _
        | Packet.Raw_l4 _ ->
            ()
      end
      else if Ipv4_addr.is_multicast ip.dst then ()
      else if Mac.equal pkt.eth.dst (Iface.mac ifc) || Mac.is_broadcast pkt.eth.dst
      then forward_ipv4 t ip
  | Packet.Lldp _ | Packet.Raw_l3 _ -> ()

let create engine ~dpid ~n_ports () =
  if n_ports < 1 then invalid_arg "Vm.create: need at least one port";
  let hostname = Printf.sprintf "vm-%Ld" dpid in
  let nics =
    Array.init n_ports (fun i ->
        Iface.create
          ~name:(Printf.sprintf "eth%d" (i + 1))
          ~mac:(Mac.make_local ((0x2 lsl 40) lor (Int64.to_int dpid lsl 12) lor (i + 1)))
          ())
  in
  let t =
    {
      engine;
      dpid;
      entity = Rf_obs.Profiler.switch dpid;
      hostname;
      nics;
      zebra = Zebra.create ~hostname ();
      ospfd = None;
      ripd = None;
      bgpd = None;
      arp = Hashtbl.create 32;
      arp_confirmed = Hashtbl.create 32;
      arp_probing = Hashtbl.create 8;
      pending = Hashtbl.create 8;
      configs = Hashtbl.create 4;
      ospf_enabled = [];
      rip_enabled = [];
      last_flows = [];
      on_flows_changed = (fun () -> ());
      flow_listeners = [];
      flows_dirty = false;
      dirty_prefixes = Hashtbl.create 16;
      dirty_all = false;
      slots = Hashtbl.create 64;
      exported = Flow_map.empty;
      arp_wanted = Prefix_map.empty;
      recursive = Hashtbl.create 4;
      slow_forwarded = 0;
      m_slow_path =
        Rf_obs.Metrics.counter
          (Rf_sim.Engine.metrics engine)
          ~help:"Packets forwarded by the VM slow path" "vm_slow_path_total";
      m_flow_exports =
        Rf_obs.Metrics.counter
          (Rf_sim.Engine.metrics engine)
          ~help:"Flow-table exports pushed to the datapath"
          "vm_flow_exports_total";
    }
  in
  Array.iteri
    (fun i ifc ->
      Zebra.add_interface t.zebra ifc;
      Iface.add_receiver ifc (handle_frame t (i + 1));
      (* Host flows exclude the NIC's own address; re-addressing within
         the same subnet moves no RIB route, so flag it here. *)
      Iface.add_address_listener ifc (fun () -> t.dirty_all <- true))
    nics;
  (* A RIB event moves the export of its own prefix only: routes that
     resolve through other RIB entries (recursive statics) are
     re-resolved on every export anyway. *)
  Rib.add_listener (rib t) (fun ev ->
      (match ev with
      | Rib.Best_added r | Rib.Best_changed r ->
          Hashtbl.replace t.dirty_prefixes r.r_prefix ()
      | Rib.Best_removed p -> Hashtbl.replace t.dirty_prefixes p ());
      refresh_flows t);
  (* Neighbour aging, Linux-style: entries unconfirmed for 300 s are
     probed (3 unicast-equivalent ARP requests); only unanswered probes
     remove the entry, so healthy next hops never cause flow churn. *)
  let reachable = Rf_sim.Vtime.span_s 300.0 in
  ignore
    (Rf_sim.Engine.periodic ~entity:t.entity engine (Rf_sim.Vtime.span_s 30.0)
       (fun () ->
         let now = Rf_sim.Engine.now engine in
         Hashtbl.iter
           (fun key mac ->
             ignore mac;
             let confirmed =
               Option.value
                 (Hashtbl.find_opt t.arp_confirmed key)
                 ~default:Rf_sim.Vtime.zero
             in
             if Rf_sim.Vtime.(add confirmed reachable < now) then begin
               let port, target = key in
               match Hashtbl.find_opt t.arp_probing key with
               | None ->
                   Hashtbl.replace t.arp_probing key 3;
                   send_arp_request t port target
               | Some 0 ->
                   Hashtbl.remove t.arp_probing key;
                   Hashtbl.remove t.arp key;
                   Hashtbl.remove t.arp_confirmed key;
                   t.dirty_all <- true;
                   refresh_flows t
               | Some n ->
                   Hashtbl.replace t.arp_probing key (n - 1);
                   send_arp_request t port target
             end)
           (Hashtbl.copy t.arp)));
  t

(* --- configuration -------------------------------------------------- *)

(* Re-applying the exact text already in force is a no-op, so the
   reconciliation pass after a controller restart can blindly push the
   full desired state without restarting daemons or re-adding routes. *)
let already_applied t file text =
  match Hashtbl.find_opt t.configs file with
  | Some current -> String.equal current text
  | None -> false

let apply_zebra_config t text =
  if already_applied t "zebra.conf" text then Ok ()
  else
  match Quagga_conf.parse_zebra text with
  | Error e -> Error e
  | Ok conf ->
      let apply_iface (ic : Quagga_conf.iface_conf) =
        match nic_by_name t ic.ic_name with
        | None -> Error (Printf.sprintf "vm %s: no NIC %s" t.hostname ic.ic_name)
        | Some ifc ->
            Iface.set_address ifc ~ip:ic.ic_ip ~prefix_len:ic.ic_prefix_len;
            Ok ()
      in
      let rec apply_all = function
        | [] -> Ok ()
        | ic :: rest -> (
            match apply_iface ic with Ok () -> apply_all rest | Error e -> Error e)
      in
      (match apply_all conf.z_ifaces with
      | Error e -> Error e
      | Ok () ->
          List.iter
            (fun (s : Quagga_conf.static_route) ->
              Zebra.add_static t.zebra s.sr_prefix s.sr_next_hop)
            conf.z_statics;
          Hashtbl.replace t.configs "zebra.conf" text;
          Ok ())

let ospf_covers (conf : Quagga_conf.ospfd_conf) ifc =
  List.exists
    (fun (prefix, _area) ->
      Iface.is_addressed ifc && Ipv4_addr.Prefix.subset (Iface.prefix ifc) prefix)
    conf.o_networks

let apply_ospfd_config t text =
  if already_applied t "ospfd.conf" text then Ok ()
  else
  match Quagga_conf.parse_ospfd text with
  | Error e -> Error e
  | Ok conf ->
      let daemon =
        match t.ospfd with
        | Some d -> d
        | None ->
            let cfg =
              {
                (Ospfd.default_config ~router_id:conf.o_router_id) with
                Ospfd.hello_interval = conf.o_hello_interval;
                dead_interval = conf.o_dead_interval;
              }
            in
            let d = Ospfd.create t.engine ~entity:t.entity cfg (rib t) in
            t.ospfd <- Some d;
            d
      in
      (* Enable OSPF on every addressed NIC covered by a network
         statement and not yet enabled. *)
      Array.iter
        (fun ifc ->
          if ospf_covers conf ifc && not (List.mem (Iface.name ifc) t.ospf_enabled)
          then begin
            let passive = List.mem (Iface.name ifc) conf.o_passive in
            Ospfd.add_interface daemon ~passive ifc;
            t.ospf_enabled <- Iface.name ifc :: t.ospf_enabled
          end)
        t.nics;
      Ospfd.start daemon;
      Hashtbl.replace t.configs "ospfd.conf" text;
      Ok ()

let rip_covers (conf : Quagga_conf.ripd_conf) ifc =
  List.exists
    (fun prefix ->
      Iface.is_addressed ifc && Ipv4_addr.Prefix.subset (Iface.prefix ifc) prefix)
    conf.r_networks

let apply_ripd_config t text =
  if already_applied t "ripd.conf" text then Ok ()
  else
  match Quagga_conf.parse_ripd text with
  | Error e -> Error e
  | Ok conf ->
      let daemon =
        match t.ripd with
        | Some d -> d
        | None ->
            let cfg =
              {
                Ripd.update_interval = float_of_int conf.r_update;
                timeout = float_of_int conf.r_timeout;
                garbage = float_of_int conf.r_garbage;
              }
            in
            let d = Ripd.create t.engine ~entity:t.entity ~config:cfg (rib t) in
            t.ripd <- Some d;
            d
      in
      Array.iter
        (fun ifc ->
          if rip_covers conf ifc && not (List.mem (Iface.name ifc) t.rip_enabled)
          then begin
            let passive = List.mem (Iface.name ifc) conf.r_passive in
            Ripd.add_interface daemon ~passive ifc;
            t.rip_enabled <- Iface.name ifc :: t.rip_enabled
          end)
        t.nics;
      Ripd.start daemon;
      Hashtbl.replace t.configs "ripd.conf" text;
      Ok ()

let apply_bgpd_config t ~peer_channel text =
  match Quagga_conf.parse_bgpd text with
  | Error e -> Error e
  | Ok conf ->
      let daemon =
        match t.bgpd with
        | Some d -> d
        | None ->
            let d =
              Bgpd.create t.engine ~entity:t.entity ~asn:conf.b_asn
                ~router_id:conf.b_router_id
                (rib t)
            in
            t.bgpd <- Some d;
            d
      in
      List.iter (fun p -> Bgpd.announce daemon p) conf.b_networks;
      List.iter
        (fun (addr, remote_asn) ->
          match peer_channel addr with
          | None -> ()
          | Some (send, set_receive) ->
              (* Our address on the shared link is the NIC that owns the
                 neighbour's subnet. *)
              let hint =
                Array.fold_left
                  (fun acc ifc ->
                    if
                      Iface.is_addressed ifc
                      && Ipv4_addr.Prefix.mem addr (Iface.prefix ifc)
                    then Some (Iface.ip ifc)
                    else acc)
                  None t.nics
              in
              let hint = Option.value hint ~default:conf.b_router_id in
              let peer =
                Bgpd.add_peer daemon ~remote_asn ~next_hop_hint:hint ~send
              in
              set_receive (fun bytes -> Bgpd.input peer bytes);
              Bgpd.start_peer peer)
        conf.b_neighbors;
      Hashtbl.replace t.configs "bgpd.conf" text;
      Ok ()

let arp_entries t =
  Hashtbl.fold (fun (port, ip) mac acc -> (port, ip, mac) :: acc) t.arp []
  |> List.sort compare

let packets_forwarded_slow_path t = t.slow_forwarded

let pp_flow_route ppf fr =
  Format.fprintf ppf "%a -> port %d (%a -> %a)" Ipv4_addr.Prefix.pp fr.fr_prefix
    fr.fr_port Mac.pp fr.fr_src_mac Mac.pp fr.fr_dst_mac
