type 'a entry = { time : Vtime.t; seq : int; value : 'a }

type 'a t = {
  mutable arr : 'a entry option array;
  mutable len : int;
  mutable next_seq : int;
  mutable peak : int;
}

let create () = { arr = Array.make 64 None; len = 0; next_seq = 0; peak = 0 }

let is_empty h = h.len = 0

let size h = h.len

let entry_lt a b =
  match Vtime.compare a.time b.time with
  | 0 -> a.seq < b.seq
  | c -> c < 0

let get h i =
  match h.arr.(i) with
  | Some e -> e
  | None -> invalid_arg "Event_heap: hole in heap"

let grow h =
  let arr = Array.make (2 * Array.length h.arr) None in
  Array.blit h.arr 0 arr 0 h.len;
  h.arr <- arr

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_lt (get h i) (get h parent) then begin
      let tmp = h.arr.(i) in
      h.arr.(i) <- h.arr.(parent);
      h.arr.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.len && entry_lt (get h l) (get h !smallest) then smallest := l;
  if r < h.len && entry_lt (get h r) (get h !smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = h.arr.(i) in
    h.arr.(i) <- h.arr.(!smallest);
    h.arr.(!smallest) <- tmp;
    sift_down h !smallest
  end

let push h time value =
  if h.len = Array.length h.arr then grow h;
  let e = { time; seq = h.next_seq; value } in
  h.next_seq <- h.next_seq + 1;
  h.arr.(h.len) <- Some e;
  h.len <- h.len + 1;
  if h.len > h.peak then h.peak <- h.len;
  sift_up h (h.len - 1)

(* Returns the stored [Some entry] directly — the dispatch hot path
   must not allocate when profiling is off, so no tuple rebuild. *)
let pop_entry h =
  if h.len = 0 then None
  else begin
    let root = h.arr.(0) in
    h.len <- h.len - 1;
    h.arr.(0) <- h.arr.(h.len);
    h.arr.(h.len) <- None;
    if h.len > 0 then sift_down h 0;
    root
  end

let min_time h =
  if h.len = 0 then invalid_arg "Event_heap.min_time: empty heap"
  else (get h 0).time

let pushes h = h.next_seq

let peak h = h.peak
