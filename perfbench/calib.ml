(* A fixed reference kernel, timed in short slices between engine steps
   of the measured phase. It does not use the library, so no change to
   the program under test changes its cost; only the host's speed does.
   The mix mirrors the simulator's: hash-table probes, random reads over
   a working set larger than the caches, and short-lived allocation. *)

let mask = (1 lsl 20) - 1

let table =
  lazy
    (let h = Hashtbl.create 65536 in
     for k = 0 to 65535 do
       Hashtbl.replace h k ((k * 40503) land 0xffff)
     done;
     h)

let words = lazy (Array.init (mask + 1) (fun i -> (i * 2654435761) land mask))

let iterations = 120_000

(* One slice of fixed work; returns its host seconds. *)
let slice () =
  let table = Lazy.force table and words = Lazy.force words in
  let t0 = Unix.gettimeofday () in
  let acc = ref 0 in
  for i = 0 to iterations - 1 do
    let k = ((i * 2654435761) + !acc) land 0xffff in
    (match Hashtbl.find_opt table k with
    | Some v -> acc := !acc + v
    | None -> ());
    acc := !acc + words.(words.((k lsl 4) land mask));
    if i land 15 = 0 then
      acc := !acc + List.length (List.init 8 (fun x -> x + !acc))
  done;
  let dt = Unix.gettimeofday () -. t0 in
  ignore (Sys.opaque_identity !acc);
  dt

(* [maybe] runs a slice whenever [every_s] host seconds have passed
   since the last one. *)
type t = {
  every_s : float;
  mutable last : float;
  mutable total : float;
  mutable n : int;
}

let create ?(every_s = 0.05) () =
  ignore (slice ());
  { every_s; last = Unix.gettimeofday (); total = 0.0; n = 0 }

let maybe t =
  if Unix.gettimeofday () -. t.last >= t.every_s then begin
    t.total <- t.total +. slice ();
    t.n <- t.n + 1;
    t.last <- Unix.gettimeofday ()
  end

(* The slice time taken as the reference speed, about one slice on the
   2-core Xeon virtual machine the benchmark was tuned on. Host seconds
   times [scale t] are seconds at that speed. *)
let nominal_s = 0.004

(* Mean slice time, after topping up to at least [min_slices]. *)
let mean ?(min_slices = 3) t =
  while t.n < min_slices do
    t.total <- t.total +. slice ();
    t.n <- t.n + 1
  done;
  t.total /. float_of_int t.n

let scale t = nominal_s /. mean t
