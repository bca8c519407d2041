open Rf_packet

(* Router ids are 32-bit; as plain ints they make cheap hash keys and
   keep the heap allocation-free. *)
let key rid = Int32.to_int (Ipv4_addr.to_int32 rid) land 0xFFFFFFFF

type node = { n_rid : Ipv4_addr.t; n_out : int array; n_metric : int array }

type graph = (int, node) Hashtbl.t

let graph_create () : graph = Hashtbl.create 64

let graph_set_links (g : graph) rid links =
  let n = List.length links in
  let out = Array.make n 0 and metric = Array.make n 0 in
  List.iteri
    (fun i (nbr, m) ->
      out.(i) <- key nbr;
      metric.(i) <- m)
    links;
  Hashtbl.replace g (key rid) { n_rid = rid; n_out = out; n_metric = metric }

let graph_remove (g : graph) rid = Hashtbl.remove g (key rid)

let graph_reset (g : graph) = Hashtbl.reset g

let links_back node k =
  let n = Array.length node.n_out in
  let rec go i = i < n && (Array.unsafe_get node.n_out i = k || go (i + 1)) in
  go 0

(* Cheapest of [node]'s links to [k], or -1. Duplicate links can carry
   different metrics; only the cheapest can be tight. *)
let metric_to node k =
  let best = ref (-1) in
  Array.iteri
    (fun i nk ->
      if nk = k then begin
        let m = node.n_metric.(i) in
        if !best < 0 || m < !best then best := m
      end)
    node.n_out;
  !best

let unreached = max_int

(* Per-router state lives in arrays indexed by a dense slot. A router
   gets its slot the first time a run reaches it and keeps it for the
   life of [t], so the previous run's arrays line up with the current
   ones and [update] can diff them slot by slot. Slots only index
   storage: every ordering decision compares router keys. *)
type t = {
  root : Ipv4_addr.t;
  root_key : int;
  slots : (int, int) Hashtbl.t;
  mutable rids : Ipv4_addr.t array;
  mutable dist : int array;  (* [unreached] when not reached *)
  mutable fh : int array;  (* first-hop slot; -1 = none *)
  (* pref = index among the root's out-links of the first hop; read
     only for routers already settled in the same run. *)
  mutable pref : int array;
  (* The previous run's [dist] and [fh]; [full] swaps the pairs. *)
  mutable prev_dist : int array;
  mutable prev_fh : int array;
  (* Binary min-heap of (dist lsl 32) lor key, with lazy deletion. *)
  mutable heap : int array;
  mutable heap_len : int;
  mutable computed : bool;
}

let create ~root =
  let cap = 16 in
  let t =
    {
      root;
      root_key = key root;
      slots = Hashtbl.create cap;
      rids = Array.make cap root;
      dist = Array.make cap unreached;
      fh = Array.make cap (-1);
      pref = Array.make cap max_int;
      prev_dist = Array.make cap unreached;
      prev_fh = Array.make cap (-1);
      heap = Array.make cap 0;
      heap_len = 0;
      computed = false;
    }
  in
  Hashtbl.add t.slots t.root_key 0;
  t

let extend a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let slot t k rid =
  match Hashtbl.find_opt t.slots k with
  | Some s -> s
  | None ->
      let s = Hashtbl.length t.slots in
      if s = Array.length t.dist then begin
        t.rids <- extend t.rids t.root;
        t.dist <- extend t.dist unreached;
        t.fh <- extend t.fh (-1);
        t.pref <- extend t.pref max_int;
        t.prev_dist <- extend t.prev_dist unreached;
        t.prev_fh <- extend t.prev_fh (-1)
      end;
      Hashtbl.add t.slots k s;
      t.rids.(s) <- rid;
      s

let find_slot t k =
  match Hashtbl.find_opt t.slots k with Some s -> s | None -> -1

(* Distances stay well under 2^30 (16-bit link metrics times the node
   count), so packing them above the 32-bit key is exact and the heap
   pops in (dist, key) order. *)
let heap_push t x =
  if t.heap_len = Array.length t.heap then t.heap <- extend t.heap 0;
  let h = t.heap in
  let i = ref t.heap_len in
  t.heap_len <- t.heap_len + 1;
  while !i > 0 && h.((!i - 1) / 2) > x do
    h.(!i) <- h.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  h.(!i) <- x

let heap_pop t =
  let h = t.heap in
  let top = h.(0) in
  let n = t.heap_len - 1 in
  t.heap_len <- n;
  if n > 0 then begin
    let x = h.(n) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < n && h.(l + 1) < h.(l) then l + 1 else l in
      if c < n && h.(c) < x then begin
        h.(!i) <- h.(c);
        i := c
      end
      else continue := false
    done;
    h.(!i) <- x
  end;
  top

let root_idx root_out k =
  let n = Array.length root_out in
  let rec go i =
    if i >= n then max_int else if root_out.(i) = k then i else go (i + 1)
  in
  go 0

(* Settle [v] at distance [dv]: its first hop is that of the tight
   in-neighbour [u] (dist u + metric = dist v) whose first hop appears
   earliest among the root's own out-links. A candidate must come
   before [v] in (dist, key) order; the heap pops in that order, so
   every candidate is already settled and its [pref] final. Neighbours
   with equal [pref] share their first hop, so which of them wins
   cannot show. In-neighbours of [v] all appear among [v]'s own
   out-links: a validated edge u->v requires v to link back to u.
   Preferring the earliest root link reproduces the equal-cost choices
   of the classic relax-order-dependent Dijkstra on symmetric
   topologies (the first link originated is the first relaxed), keeping
   route fingerprints stable. *)
let settle t g root_out vnode sv v dv =
  let best_pref = ref max_int and best_fh = ref (-1) in
  Array.iter
    (fun u ->
      let su = find_slot t u in
      if su >= 0 then begin
        let du = t.dist.(su) in
        if du < dv || (du = dv && u < v) then
          match Hashtbl.find_opt g u with
          | Some unode ->
              let c = metric_to unode v in
              if c >= 0 && du + c = dv then begin
                let p =
                  if u = t.root_key then root_idx root_out v else t.pref.(su)
                in
                if p < !best_pref then begin
                  best_pref := p;
                  best_fh := if u = t.root_key then sv else t.fh.(su)
                end
              end
          | None -> ()
      end)
    vnode.n_out;
  t.pref.(sv) <- !best_pref;
  t.fh.(sv) <- !best_fh

let full t g =
  let spare_dist = t.prev_dist and spare_fh = t.prev_fh in
  t.prev_dist <- t.dist;
  t.prev_fh <- t.fh;
  let n = Hashtbl.length t.slots in
  Array.fill spare_dist 0 n unreached;
  Array.fill spare_fh 0 n (-1);
  t.dist <- spare_dist;
  t.fh <- spare_fh;
  let root_out =
    match Hashtbl.find_opt g t.root_key with
    | Some n -> n.n_out
    | None -> [||]
  in
  t.dist.(0) <- 0;
  t.heap_len <- 0;
  heap_push t t.root_key;
  while t.heap_len > 0 do
    let packed = heap_pop t in
    let d = packed lsr 32 and u = packed land 0xFFFFFFFF in
    let su = find_slot t u in
    if t.dist.(su) = d then
      match Hashtbl.find_opt g u with
      | None -> ()
      | Some unode ->
          if u <> t.root_key then settle t g root_out unode su u d;
          Array.iteri
            (fun idx v ->
              match Hashtbl.find_opt g v with
              | Some vnode when links_back vnode u ->
                  let nd = d + unode.n_metric.(idx) in
                  let sv = slot t v vnode.n_rid in
                  if nd < t.dist.(sv) then begin
                    t.dist.(sv) <- nd;
                    heap_push t ((nd lsl 32) lor v)
                  end
              | Some _ | None -> ())
            unode.n_out
  done;
  t.computed <- true

type change = All | Routers of Ipv4_addr.t list

let update t g ~dirty =
  if (not t.computed) || List.exists (fun rid -> key rid = t.root_key) dirty
  then begin
    full t g;
    All
  end
  else if dirty = [] then Routers []
  else begin
    full t g;
    let moved = ref [] in
    for s = Hashtbl.length t.slots - 1 downto 0 do
      if t.dist.(s) <> t.prev_dist.(s) || t.fh.(s) <> t.prev_fh.(s) then
        moved := t.rids.(s) :: !moved
    done;
    Routers !moved
  end

let dist t rid =
  let s = find_slot t (key rid) in
  if s < 0 || t.dist.(s) = unreached then None else Some t.dist.(s)

let first_hop t rid =
  let s = find_slot t (key rid) in
  if s < 0 || t.fh.(s) < 0 then None else Some t.rids.(t.fh.(s))

let iter t f =
  for s = 1 to Hashtbl.length t.slots - 1 do
    let h = t.fh.(s) in
    if h >= 0 then f t.rids.(s) t.dist.(s) t.rids.(h)
  done

let reachable t =
  let acc = ref [] in
  iter t (fun rid d h -> acc := (rid, d, h) :: !acc);
  List.sort (fun (a, _, _) (b, _, _) -> Ipv4_addr.compare a b) !acc
