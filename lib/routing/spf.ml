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

type t = {
  root : Ipv4_addr.t;
  root_key : int;
  dist : (int, int) Hashtbl.t;
  parent : (int, int) Hashtbl.t;
  fh : (int, int) Hashtbl.t;  (* first-hop key; -1 = no derivable hop *)
  (* pref = root-link index of the node's first hop (see
     [canonical_pass]); persisted so incremental runs can reuse the
     inherited preference of untouched nodes. *)
  pref : (int, int) Hashtbl.t;
  rids : (int, Ipv4_addr.t) Hashtbl.t;
  visited : (int, unit) Hashtbl.t;  (* relax_run scratch *)
  mutable heap_d : int array;
  mutable heap_k : int array;
  mutable heap_len : int;
  mutable computed : bool;
}

let create ~root =
  {
    root;
    root_key = key root;
    dist = Hashtbl.create 64;
    parent = Hashtbl.create 64;
    fh = Hashtbl.create 64;
    pref = Hashtbl.create 64;
    rids = Hashtbl.create 64;
    visited = Hashtbl.create 64;
    heap_d = Array.make 64 0;
    heap_k = Array.make 64 0;
    heap_len = 0;
    computed = false;
  }

(* Binary min-heap over (dist, key) as two parallel int arrays, with
   lazy deletion: stale entries are skipped when popped. *)

let heap_push t d k =
  if t.heap_len = Array.length t.heap_d then begin
    let cap = 2 * t.heap_len in
    let nd = Array.make cap 0 and nk = Array.make cap 0 in
    Array.blit t.heap_d 0 nd 0 t.heap_len;
    Array.blit t.heap_k 0 nk 0 t.heap_len;
    t.heap_d <- nd;
    t.heap_k <- nk
  end;
  let hd = t.heap_d and hk = t.heap_k in
  let i = ref t.heap_len in
  t.heap_len <- t.heap_len + 1;
  hd.(!i) <- d;
  hk.(!i) <- k;
  while !i > 0 && hd.((!i - 1) / 2) > hd.(!i) do
    let p = (!i - 1) / 2 in
    let td = hd.(p) and tk = hk.(p) in
    hd.(p) <- hd.(!i);
    hk.(p) <- hk.(!i);
    hd.(!i) <- td;
    hk.(!i) <- tk;
    i := p
  done

(* [track] (when given) collects every key whose distance was set or
   improved during the run — the change set driving the incremental
   canonical pass. *)
let relax_run t g ~track =
  let visited = t.visited in
  Hashtbl.reset visited;
  while t.heap_len > 0 do
    let hd = t.heap_d and hk = t.heap_k in
    let d = hd.(0) and u = hk.(0) in
    t.heap_len <- t.heap_len - 1;
    hd.(0) <- hd.(t.heap_len);
    hk.(0) <- hk.(t.heap_len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.heap_len && hd.(l) < hd.(!smallest) then smallest := l;
      if r < t.heap_len && hd.(r) < hd.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let td = hd.(!smallest) and tk = hk.(!smallest) in
        hd.(!smallest) <- hd.(!i);
        hk.(!smallest) <- hk.(!i);
        hd.(!i) <- td;
        hk.(!i) <- tk;
        i := !smallest
      end
      else continue := false
    done;
    let live =
      (not (Hashtbl.mem visited u))
      &&
      match Hashtbl.find_opt t.dist u with Some cur -> cur = d | None -> false
    in
    if live then begin
      Hashtbl.replace visited u ();
      match Hashtbl.find_opt g u with
      | None -> ()
      | Some unode ->
          Array.iteri
            (fun idx v ->
              match Hashtbl.find_opt g v with
              | Some vnode when links_back vnode u ->
                  let nd = d + unode.n_metric.(idx) in
                  let better =
                    match Hashtbl.find_opt t.dist v with
                    | Some old -> nd < old
                    | None -> true
                  in
                  if better then begin
                    Hashtbl.replace t.dist v nd;
                    Hashtbl.replace t.rids v vnode.n_rid;
                    (match track with
                    | Some tbl -> Hashtbl.replace tbl v ()
                    | None -> ());
                    heap_push t nd v
                  end
              | Some _ | None -> ())
            unode.n_out
    end
  done

(* Parents and first hops as a pure function of the distance map, so
   full and incremental runs derive identical trees whatever order they
   relaxed edges in. Nodes are processed in (dist, key) order; the
   canonical parent of [v] is the tight in-neighbor [u] (dist u +
   metric = dist v, (dist u, u) lexicographically before (dist v, v))
   whose first hop appears earliest among the root's own out-links,
   breaking remaining ties on the smaller key. Preferring the earliest
   root link reproduces the equal-cost choices of the classic
   relax-order-dependent Dijkstra on symmetric topologies (the first
   link originated is the first relaxed), keeping route fingerprints
   stable across the rewrite. *)
let root_idx_fn t g =
  let root_out =
    match Hashtbl.find_opt g t.root_key with
    | Some n -> n.n_out
    | None -> [||]
  in
  fun k ->
    let n = Array.length root_out in
    let rec go i =
      if i >= n then max_int else if root_out.(i) = k then i else go (i + 1)
    in
    go 0

(* Reachable non-root nodes in (dist, key) order, packed as
   (d lsl 32) lor key into a sorted int array. Distances stay well
   under 2^30 (16-bit link metrics times the node count), so the
   packing is exact and the sort allocation-light. *)
let ordered_nodes t =
  let n = Hashtbl.length t.dist in
  let a = Array.make (max n 1) 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun v d ->
      if v <> t.root_key then begin
        a.(!i) <- (d lsl 32) lor v;
        incr i
      end)
    t.dist;
  let a = if !i = n then a else Array.sub a 0 !i in
  Array.sort (fun (x : int) y -> compare x y) a;
  a

(* Canonical parent of [v]: the tight in-neighbor [u] (dist u + metric
   = dist v, (dist u, u) lexicographically before (dist v, v)) whose
   first hop appears earliest among the root's own out-links, breaking
   remaining ties on the smaller key. In-neighbors of [v] all appear
   among [v]'s own out-links: a validated edge u->v requires v to link
   back to u. Returns (parent, pref); (-1, max_int) when none. *)
let select_parent t g root_idx vnode v dv =
  let best = ref (-1) and best_pref = ref max_int in
  Array.iter
    (fun u ->
      if u <> v then begin
        match Hashtbl.find_opt t.dist u with
        | Some du when du < dv || (du = dv && u < v) -> (
            match Hashtbl.find_opt g u with
            | Some unode ->
                let c = metric_to unode v in
                if c >= 0 && du + c = dv then begin
                  let p =
                    if u = t.root_key then root_idx v
                    else
                      match Hashtbl.find_opt t.pref u with
                      | Some p -> p
                      | None -> max_int
                  in
                  if
                    p < !best_pref || (p = !best_pref && (!best < 0 || u < !best))
                  then begin
                    best := u;
                    best_pref := p
                  end
                end
            | None -> ())
        | Some _ | None -> ()
      end)
    vnode.n_out;
  (!best, !best_pref)

let store_parent t v best best_pref =
  Hashtbl.replace t.parent v best;
  Hashtbl.replace t.pref v best_pref;
  if best = t.root_key then Hashtbl.replace t.fh v v
  else
    let h = match Hashtbl.find_opt t.fh best with Some h -> h | None -> -1 in
    Hashtbl.replace t.fh v h

(* Parents and first hops as a pure function of the distance map, so
   full and incremental runs derive identical trees whatever order they
   relaxed edges in. Nodes are processed in (dist, key) order — every
   candidate parent precedes the node it serves, so inherited
   preferences are final when read. Preferring the earliest root link
   reproduces the equal-cost choices of the classic
   relax-order-dependent Dijkstra on symmetric topologies (the first
   link originated is the first relaxed), keeping route fingerprints
   stable across the rewrite. *)
let canonical_pass t g =
  Hashtbl.reset t.parent;
  Hashtbl.reset t.fh;
  Hashtbl.reset t.pref;
  let root_idx = root_idx_fn t g in
  Array.iter
    (fun packed ->
      let dv = packed lsr 32 and v = packed land 0xFFFFFFFF in
      match Hashtbl.find_opt g v with
      | None -> ()
      | Some vnode ->
          let best, best_pref = select_parent t g root_idx vnode v dv in
          if best >= 0 then store_parent t v best best_pref)
    (ordered_nodes t)

(* Incremental variant: [touched] holds every key whose distance or
   adjacency changed this run. A node outside [touched] with no
   touched neighbor keeps its stored parent: its own distance, its
   candidates' distances and the connecting metrics are all unchanged,
   and so are the candidates' inherited preferences (fh changes
   propagate through [fh_changed]). Processing in (dist, key) order
   makes each candidate's final pref available when read, exactly as
   in the full pass. Returns the nodes whose first hop changed. *)
let canonical_update t g ~touched =
  let fh_changed : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let root_idx = root_idx_fn t g in
  Array.iter
    (fun packed ->
      let dv = packed lsr 32 and v = packed land 0xFFFFFFFF in
      match Hashtbl.find_opt g v with
      | None -> ()
      | Some vnode ->
          let need =
            Hashtbl.mem touched v
            ||
            let n = Array.length vnode.n_out in
            let rec scan i =
              i < n
              &&
              let u = Array.unsafe_get vnode.n_out i in
              Hashtbl.mem touched u || Hashtbl.mem fh_changed u || scan (i + 1)
            in
            scan 0
          in
          if need then begin
            let old_fh = Hashtbl.find_opt t.fh v in
            let best, best_pref = select_parent t g root_idx vnode v dv in
            if best >= 0 then store_parent t v best best_pref
            else begin
              Hashtbl.remove t.parent v;
              Hashtbl.remove t.fh v;
              Hashtbl.remove t.pref v
            end;
            if Hashtbl.find_opt t.fh v <> old_fh then
              Hashtbl.replace fh_changed v ()
          end)
    (ordered_nodes t);
  fh_changed

let full t g =
  Hashtbl.reset t.dist;
  Hashtbl.reset t.rids;
  t.heap_len <- 0;
  Hashtbl.replace t.dist t.root_key 0;
  Hashtbl.replace t.rids t.root_key t.root;
  heap_push t 0 t.root_key;
  relax_run t g ~track:None;
  canonical_pass t g;
  t.computed <- true

type change = All | Routers of Ipv4_addr.t list

let rid_of_key k = Ipv4_addr.of_int32 (Int32.of_int k)

let update t g ~dirty =
  if (not t.computed) || List.exists (fun rid -> key rid = t.root_key) dirty
  then begin
    full t g;
    All
  end
  else if dirty = [] then Routers []
  else begin
    (* Invalidate the dirty routers plus everything the old tree
       reached through them; what is left keeps correct distances
       (their canonical paths avoid every changed router, and edges
       between two unchanged routers cannot have changed). *)
    let children : (int, int list) Hashtbl.t = Hashtbl.create 64 in
    Hashtbl.iter
      (fun v p ->
        let prev =
          match Hashtbl.find_opt children p with Some l -> l | None -> []
        in
        Hashtbl.replace children p (v :: prev))
      t.parent;
    let invalid : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    let rec mark k =
      if not (Hashtbl.mem invalid k) then begin
        Hashtbl.replace invalid k ();
        match Hashtbl.find_opt children k with
        | Some kids -> List.iter mark kids
        | None -> ()
      end
    in
    List.iter (fun rid -> mark (key rid)) dirty;
    Hashtbl.iter
      (fun k () ->
        Hashtbl.remove t.dist k;
        Hashtbl.remove t.rids k)
      invalid;
    t.heap_len <- 0;
    (* Seed the frontier with the best edge from each still-valid node
       into the invalidated hole, then let Dijkstra repair the hole.
       Improvements to valid nodes through the changed region propagate
       by ordinary relaxation once the hole nodes settle. *)
    Hashtbl.iter
      (fun w () ->
        match Hashtbl.find_opt g w with
        | None -> ()
        | Some wnode ->
            Array.iter
              (fun u ->
                match Hashtbl.find_opt t.dist u with
                | None -> ()
                | Some du -> (
                    match Hashtbl.find_opt g u with
                    | Some unode ->
                        let c = metric_to unode w in
                        if c >= 0 then begin
                          let nd = du + c in
                          let better =
                            match Hashtbl.find_opt t.dist w with
                            | Some old -> nd < old
                            | None -> true
                          in
                          if better then begin
                            Hashtbl.replace t.dist w nd;
                            Hashtbl.replace t.rids w wnode.n_rid;
                            heap_push t nd w
                          end
                        end
                    | None -> ()))
              wnode.n_out)
      invalid;
    (* [invalid] doubles as the canonical pass's change set: relax_run
       adds every node whose distance improved, so afterwards it holds
       exactly the keys whose distance or adjacency changed. *)
    relax_run t g ~track:(Some invalid);
    Hashtbl.iter
      (fun k () ->
        if not (Hashtbl.mem t.dist k) then begin
          Hashtbl.remove t.parent k;
          Hashtbl.remove t.fh k;
          Hashtbl.remove t.pref k
        end)
      invalid;
    let fh_changed = canonical_update t g ~touched:invalid in
    (* Every node whose distance or first hop can differ from the last
       run: [invalid] covers the distances, [fh_changed] the hops. *)
    Hashtbl.iter (fun k () -> Hashtbl.replace invalid k ()) fh_changed;
    Routers (Hashtbl.fold (fun k () acc -> rid_of_key k :: acc) invalid [])
  end

let dist t rid = Hashtbl.find_opt t.dist (key rid)

let first_hop t rid =
  match Hashtbl.find_opt t.fh (key rid) with
  | Some h when h >= 0 -> Hashtbl.find_opt t.rids h
  | Some _ | None -> None

let iter t f =
  Hashtbl.iter
    (fun v d ->
      if v <> t.root_key then
        match Hashtbl.find_opt t.fh v with
        | Some h when h >= 0 ->
            f (Hashtbl.find t.rids v) d (Hashtbl.find t.rids h)
        | Some _ | None -> ())
    t.dist

let reachable t =
  let acc = ref [] in
  iter t (fun rid d h -> acc := (rid, d, h) :: !acc);
  List.sort (fun (a, _, _) (b, _, _) -> Ipv4_addr.compare a b) !acc
