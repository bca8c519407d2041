open Rf_openflow
open Rf_packet

type entry = {
  e_match : Of_match.t;
  e_priority : int;
  e_cookie : int64;
  e_idle_timeout : int;
  e_hard_timeout : int;
  e_notify_removed : bool;
  e_seq : int;
  mutable e_actions : Of_action.t list;
  mutable e_packets : int64;
  mutable e_bytes : int64;
  e_installed : Rf_sim.Vtime.t;
  mutable e_last_used : Rf_sim.Vtime.t;
}

type removal_reason = Expired_idle | Expired_hard | Deleted

(* Table order: priority descending, then installation sequence
   ascending. *)
module Order = Map.Make (struct
  type t = int * int  (* (priority, seq) *)

  let compare ((pa, sa) : t) (pb, sb) =
    if pa <> pb then Int.compare pb pa else Int.compare sa sb
end)

(* Lookup index: entries partitioned by wildcard signature (which
   fields are exact, plus the two prefix lengths). Within a signature
   every entry constrains the same projection of the key, so the bucket
   is an exact-match hash table from projected key to that key's
   entries in table order; the head is the key's winner. A lookup
   probes one hash table per distinct signature instead of scanning
   every entry. Two entries share a signature and projected key exactly
   when their matches are equal, so the same table also finds the
   identical (match, priority) entry an Add replaces. *)
type bucket = {
  b_mask : int;  (* presence bits for the ten scalar fields *)
  b_src : int;  (* nw_src prefix length; -1 = wildcarded *)
  b_dst : int;
  b_tbl : (Of_match.key, entry list) Hashtbl.t;
}

type t = {
  mutable order : entry Order.t;
  mutable listed : entry list option;  (* [order] as a list, cached *)
  mutable buckets : bucket list;  (* kept current; none is empty *)
  mutable size : int;
  mutable timed : int;  (* entries with a nonzero idle or hard timeout *)
  capacity : int;
  mutable next_seq : int;
}

let create ?(capacity = 65536) () =
  {
    order = Order.empty;
    listed = None;
    buckets = [];
    size = 0;
    timed = 0;
    capacity;
    next_seq = 0;
  }

let size t = t.size

let entries t =
  match t.listed with
  | Some l -> l
  | None ->
      let l = Order.fold (fun _ e acc -> e :: acc) t.order [] |> List.rev in
      t.listed <- Some l;
      l

let lookup_linear t key =
  List.find_opt (fun e -> Of_match.matches e.e_match key) (entries t)

let bit_in_port = 1 lsl 0

let bit_dl_src = 1 lsl 1

let bit_dl_dst = 1 lsl 2

let bit_dl_vlan = 1 lsl 3

let bit_dl_pcp = 1 lsl 4

let bit_dl_type = 1 lsl 5

let bit_nw_tos = 1 lsl 6

let bit_nw_proto = 1 lsl 7

let bit_tp_src = 1 lsl 8

let bit_tp_dst = 1 lsl 9

let mask_of_match (m : Of_match.t) =
  let bit b = function Some _ -> b | None -> 0 in
  bit bit_in_port m.m_in_port
  lor bit bit_dl_src m.m_dl_src
  lor bit bit_dl_dst m.m_dl_dst
  lor bit bit_dl_vlan m.m_dl_vlan
  lor bit bit_dl_pcp m.m_dl_pcp
  lor bit bit_dl_type m.m_dl_type
  lor bit bit_nw_tos m.m_nw_tos
  lor bit bit_nw_proto m.m_nw_proto
  lor bit bit_tp_src m.m_tp_src
  lor bit bit_tp_dst m.m_tp_dst

let prefix_len = function
  | None -> -1
  | Some p -> Ipv4_addr.Prefix.length p

let mask_addr a len =
  if len <= 0 then Ipv4_addr.any
  else
    Ipv4_addr.of_int32
      (Int32.logand (Ipv4_addr.to_int32 a) (Int32.shift_left (-1l) (32 - len)))

(* The exact-match key an entry of this bucket constrains: wildcarded
   fields zeroed, prefix fields masked to the bucket's lengths. *)
let project b (k : Of_match.key) =
  {
    Of_match.in_port = (if b.b_mask land bit_in_port <> 0 then k.in_port else 0);
    dl_src = (if b.b_mask land bit_dl_src <> 0 then k.dl_src else Mac.zero);
    dl_dst = (if b.b_mask land bit_dl_dst <> 0 then k.dl_dst else Mac.zero);
    dl_vlan = (if b.b_mask land bit_dl_vlan <> 0 then k.dl_vlan else 0);
    dl_pcp = (if b.b_mask land bit_dl_pcp <> 0 then k.dl_pcp else 0);
    dl_type = (if b.b_mask land bit_dl_type <> 0 then k.dl_type else 0);
    nw_tos = (if b.b_mask land bit_nw_tos <> 0 then k.nw_tos else 0);
    nw_proto = (if b.b_mask land bit_nw_proto <> 0 then k.nw_proto else 0);
    nw_src = mask_addr k.nw_src b.b_src;
    nw_dst = mask_addr k.nw_dst b.b_dst;
    tp_src = (if b.b_mask land bit_tp_src <> 0 then k.tp_src else 0);
    tp_dst = (if b.b_mask land bit_tp_dst <> 0 then k.tp_dst else 0);
  }

let key_of_match (m : Of_match.t) =
  let addr = function
    | None -> Ipv4_addr.any
    | Some p -> Ipv4_addr.Prefix.network p
  in
  {
    Of_match.in_port = Option.value m.m_in_port ~default:0;
    dl_src = Option.value m.m_dl_src ~default:Mac.zero;
    dl_dst = Option.value m.m_dl_dst ~default:Mac.zero;
    dl_vlan = Option.value m.m_dl_vlan ~default:0;
    dl_pcp = Option.value m.m_dl_pcp ~default:0;
    dl_type = Option.value m.m_dl_type ~default:0;
    nw_tos = Option.value m.m_nw_tos ~default:0;
    nw_proto = Option.value m.m_nw_proto ~default:0;
    nw_src = addr m.m_nw_src;
    nw_dst = addr m.m_nw_dst;
    tp_src = Option.value m.m_tp_src ~default:0;
    tp_dst = Option.value m.m_tp_dst ~default:0;
  }

let signature_of (m : Of_match.t) =
  (mask_of_match m, prefix_len m.Of_match.m_nw_src, prefix_len m.Of_match.m_nw_dst)

let find_bucket buckets (mask, src, dst) =
  List.find_opt (fun b -> b.b_mask = mask && b.b_src = src && b.b_dst = dst) buckets

(* Full rebuild of the index from the table order: the reference the
   incrementally maintained [t.buckets] is checked against. *)
let rebuild t =
  let buckets = ref [] in
  (* [entries t] is already (priority desc, seq asc): the first entry
     stored for a projected key is the bucket's winner. *)
  List.iter
    (fun e ->
      let ((mask, src, dst) as sg) = signature_of e.e_match in
      let b =
        match find_bucket !buckets sg with
        | Some b -> b
        | None ->
            let b =
              { b_mask = mask; b_src = src; b_dst = dst; b_tbl = Hashtbl.create 64 }
            in
            buckets := b :: !buckets;
            b
      in
      let pk = key_of_match e.e_match in
      if not (Hashtbl.mem b.b_tbl pk) then Hashtbl.add b.b_tbl pk [ e ])
    (entries t);
  List.rev !buckets

let index_consistent t =
  let fresh = rebuild t in
  let winners_agree b =
    match find_bucket t.buckets (b.b_mask, b.b_src, b.b_dst) with
    | None -> false
    | Some live ->
        Hashtbl.length live.b_tbl = Hashtbl.length b.b_tbl
        && Hashtbl.fold
             (fun pk fresh_list ok ->
               ok
               &&
               match (Hashtbl.find_opt live.b_tbl pk, fresh_list) with
               | Some (w :: _), [ e ] -> w == e
               | _ -> false)
             b.b_tbl true
  in
  let listed =
    List.fold_left
      (fun n b -> Hashtbl.fold (fun _ l n -> n + List.length l) b.b_tbl n)
      0 t.buckets
  in
  List.length fresh = List.length t.buckets
  && List.for_all winners_agree fresh
  && listed = t.size
  && t.size = List.length (entries t)

(* Highest priority across buckets wins; within equal priority the
   earliest-installed entry ([e_seq]) — exactly the entry the linear
   scan over the sorted list would find first. *)
let lookup t key =
  let rec go best = function
    | [] -> best
    | b :: rest ->
        let best =
          match Hashtbl.find_opt b.b_tbl (project b key) with
          | None | Some [] -> best
          | Some (e :: _) -> (
              match best with
              | Some be
                when be.e_priority > e.e_priority
                     || (be.e_priority = e.e_priority && be.e_seq < e.e_seq) ->
                  best
              | Some _ | None -> Some e)
        in
        go best rest
  in
  go None t.buckets

let account e ~now ~bytes =
  e.e_packets <- Int64.succ e.e_packets;
  e.e_bytes <- Int64.add e.e_bytes (Int64.of_int bytes);
  e.e_last_used <- now

let is_timed e = e.e_idle_timeout > 0 || e.e_hard_timeout > 0

let before a b =
  a.e_priority > b.e_priority || (a.e_priority = b.e_priority && a.e_seq < b.e_seq)

let insert t e =
  t.order <- Order.add (e.e_priority, e.e_seq) e t.order;
  t.listed <- None;
  t.size <- t.size + 1;
  if is_timed e then t.timed <- t.timed + 1;
  let ((mask, src, dst) as sg) = signature_of e.e_match in
  let b =
    match find_bucket t.buckets sg with
    | Some b -> b
    | None ->
        let b =
          { b_mask = mask; b_src = src; b_dst = dst; b_tbl = Hashtbl.create 64 }
        in
        t.buckets <- t.buckets @ [ b ];
        b
  in
  let pk = key_of_match e.e_match in
  let rec place = function
    | [] -> [ e ]
    | x :: rest as l -> if before e x then e :: l else x :: place rest
  in
  Hashtbl.replace b.b_tbl pk
    (place (Option.value (Hashtbl.find_opt b.b_tbl pk) ~default:[]))

(* Removing a key's winner promotes the next entry for that key; a
   bucket left empty is dropped so lookups never probe it. *)
let remove t e =
  t.order <- Order.remove (e.e_priority, e.e_seq) t.order;
  t.listed <- None;
  t.size <- t.size - 1;
  if is_timed e then t.timed <- t.timed - 1;
  match find_bucket t.buckets (signature_of e.e_match) with
  | None -> ()
  | Some b ->
      let pk = key_of_match e.e_match in
      (match Hashtbl.find_opt b.b_tbl pk with
      | None -> ()
      | Some l -> (
          match List.filter (fun x -> x != e) l with
          | [] -> Hashtbl.remove b.b_tbl pk
          | rest -> Hashtbl.replace b.b_tbl pk rest));
      if Hashtbl.length b.b_tbl = 0 then
        t.buckets <- List.filter (fun x -> x != b) t.buckets

(* The entry with exactly this match and priority; at most one exists,
   since Add replaces it. *)
let find_identical t (m : Of_match.t) priority =
  match find_bucket t.buckets (signature_of m) with
  | None -> None
  | Some b -> (
      match Hashtbl.find_opt b.b_tbl (key_of_match m) with
      | None -> None
      | Some l -> List.find_opt (fun e -> e.e_priority = priority) l)

let entry_outputs_to port e =
  List.exists
    (fun a ->
      match a with
      | Of_action.Output { port = p; _ } -> p = port
      | Of_action.Set_dl_src _ | Of_action.Set_dl_dst _ | Of_action.Set_nw_src _
      | Of_action.Set_nw_dst _ | Of_action.Set_nw_tos _ | Of_action.Set_tp_src _
      | Of_action.Set_tp_dst _ | Of_action.Strip_vlan ->
          false)
    e.e_actions

let out_port_ok (fm : Of_msg.flow_mod) e =
  match fm.fm_out_port with None -> true | Some port -> entry_outputs_to port e

let rec apply_flow_mod t ~now (fm : Of_msg.flow_mod) =
  match fm.fm_command with
  | Of_msg.Add ->
      let identical = find_identical t fm.fm_match fm.fm_priority in
      let others = if identical = None then t.size else t.size - 1 in
      if others >= t.capacity then Error "all tables full"
      else begin
        Option.iter (remove t) identical;
        t.next_seq <- t.next_seq + 1;
        insert t
          {
            e_match = fm.fm_match;
            e_priority = fm.fm_priority;
            e_cookie = fm.fm_cookie;
            e_idle_timeout = fm.fm_idle_timeout;
            e_hard_timeout = fm.fm_hard_timeout;
            e_notify_removed = fm.fm_notify_removed;
            e_seq = t.next_seq;
            e_actions = fm.fm_actions;
            e_packets = 0L;
            e_bytes = 0L;
            e_installed = now;
            e_last_used = now;
          };
        Ok []
      end
  | Of_msg.Modify | Of_msg.Modify_strict ->
      let hits =
        if fm.fm_command = Of_msg.Modify_strict then
          Option.to_list (find_identical t fm.fm_match fm.fm_priority)
        else
          List.filter (fun e -> Of_match.subsumes fm.fm_match e.e_match) (entries t)
      in
      if hits <> [] then begin
        List.iter (fun e -> e.e_actions <- fm.fm_actions) hits;
        Ok []
      end
      else
        (* OF 1.0: a modify that matches nothing behaves as an add. *)
        apply_flow_mod t ~now { fm with fm_command = Of_msg.Add }
  | Of_msg.Delete | Of_msg.Delete_strict ->
      let removed =
        if fm.fm_command = Of_msg.Delete_strict then
          Option.to_list (find_identical t fm.fm_match fm.fm_priority)
          |> List.filter (out_port_ok fm)
        else
          List.filter
            (fun e -> Of_match.subsumes fm.fm_match e.e_match && out_port_ok fm e)
            (entries t)
      in
      List.iter (remove t) removed;
      Ok removed

let expire t ~now =
  if t.timed = 0 then []
  else begin
    let expired e =
      let age_since from limit =
        limit > 0
        && Rf_sim.Vtime.(add from (Rf_sim.Vtime.span_s (float_of_int limit)) <= now)
      in
      if age_since e.e_installed e.e_hard_timeout then Some Expired_hard
      else if age_since e.e_last_used e.e_idle_timeout then Some Expired_idle
      else None
    in
    let gone =
      List.filter_map
        (fun e -> Option.map (fun reason -> (e, reason)) (expired e))
        (entries t)
    in
    List.iter (fun (e, _) -> remove t e) gone;
    (* Canonical eviction order, independent of insertion history: higher
       priority first, then lowest cookie, with table order as the final
       (stable) tie-break. Keeps the Flow_removed sequence deterministic
       when several entries expire at the same vtime. *)
    List.stable_sort
      (fun ((a : entry), _) ((b : entry), _) ->
        match compare b.e_priority a.e_priority with
        | 0 -> Int64.compare a.e_cookie b.e_cookie
        | c -> c)
      gone
  end

let stats t ~match_ ~out_port ~now =
  List.filter_map
    (fun e ->
      let match_ok = Of_match.subsumes match_ e.e_match in
      let out_ok =
        match out_port with None -> true | Some p -> entry_outputs_to p e
      in
      if match_ok && out_ok then
        Some
          {
            Of_msg.fs_match = e.e_match;
            fs_priority = e.e_priority;
            fs_cookie = e.e_cookie;
            fs_duration_s =
              int_of_float
                (Rf_sim.Vtime.span_to_s (Rf_sim.Vtime.diff now e.e_installed));
            fs_packet_count = e.e_packets;
            fs_byte_count = e.e_bytes;
            fs_actions = e.e_actions;
          }
      else None)
    (entries t)
