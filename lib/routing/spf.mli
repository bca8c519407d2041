(** Shortest-path-first engine.

    Holds the shortest-path tree rooted at one router. Every run is one
    Dijkstra pass from the root that pops routers in (distance, router
    id) order and fixes each router's first hop as it settles, so the
    tree is a function of the graph alone: equal-cost ties break the
    same way whatever order routers were added or links relaxed.
    {!update} runs the same pass and reports the routers whose distance
    or first hop differs from the previous run.

    The graph is the router-LSA topology: a directed edge [u -> v]
    with metric [m] exists when [u]'s links list [(v, m)] {e and} [v]'s
    links list [u] back (the bidirectionality check of RFC 2328
    §16.1). *)

open Rf_packet

type graph
(** Mutable adjacency cache, keyed by router id. *)

val graph_create : unit -> graph

val graph_set_links : graph -> Ipv4_addr.t -> (Ipv4_addr.t * int) list -> unit
(** Replace [rid]'s out-links with [(neighbor, metric)] pairs. *)

val graph_remove : graph -> Ipv4_addr.t -> unit

val graph_reset : graph -> unit

type t

val create : root:Ipv4_addr.t -> t

val full : t -> graph -> unit
(** Recompute the whole tree from the root. *)

type change =
  | All  (** the first run, or the root's own links changed *)
  | Routers of Ipv4_addr.t list
      (** exactly the routers whose distance or first hop differs from
          the previous run, including those that became unreachable
          (unordered) *)

val update : t -> graph -> dirty:Ipv4_addr.t list -> change
(** Rerun the tree given that exactly the routers in [dirty] changed
    their links since the last run. The caller must have refreshed
    [graph] for those routers first. Returns [All] when the tree has
    never been computed or when the root itself is dirty, and
    [Routers []] without a run when [dirty] is empty. Otherwise the
    result lists the routers that moved, so route publication can
    re-evaluate only what they advertise. *)

val dist : t -> Ipv4_addr.t -> int option
(** Distance from the root; [None] when unreachable. *)

val first_hop : t -> Ipv4_addr.t -> Ipv4_addr.t option
(** First router on the canonical shortest path from the root. *)

val iter : t -> (Ipv4_addr.t -> int -> Ipv4_addr.t -> unit) -> unit
(** [iter t f] calls [f rid dist first_hop] for every reachable router
    other than the root (iteration order unspecified). *)

val reachable : t -> (Ipv4_addr.t * int * Ipv4_addr.t) list
(** Sorted [(rid, dist, first_hop)] snapshot, for tests. *)
