(** Binary min-heap of timestamped events.

    Ties on time are broken by insertion sequence number so that two
    events scheduled for the same instant fire in scheduling order —
    this is what makes the whole simulation deterministic. *)

type 'a entry = private { time : Vtime.t; seq : int; value : 'a }
(** Heap slot as stored: timestamp, insertion sequence number, payload. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val size : 'a t -> int

val push : 'a t -> Vtime.t -> 'a -> unit
(** [push h time v] inserts [v] with priority [time]. *)

val pop_entry : 'a t -> 'a entry option
(** Removes and returns the earliest entry, or [None] if empty. The
    stored entry is returned as is, so popping allocates nothing. *)

val min_time : 'a t -> Vtime.t
(** Time of the earliest entry without removing it; raises
    [Invalid_argument] on an empty heap — check {!is_empty} first. *)

val pushes : 'a t -> int
(** Cumulative number of [push]es over the heap's lifetime (the
    insertion sequence counter) — the churn figure profilers report
    alongside depth. *)

val peak : 'a t -> int
(** Maximum size ever reached (tracked at push, so it is exact even
    between pops) — profilers report it as the heap's high-water
    mark. *)
