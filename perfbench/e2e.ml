(* End-to-end autoconfiguration benchmark.

     e2e.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs the workload in fresh child processes of this executable: one
   plain repetition (peak memory, gates, digest), then timed
   repetitions until S host seconds have passed (at least [min_timed]),
   then, with --trace 1, one traced repetition. The last line of
   standard output is one JSON object
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
   holding the end-to-end metrics (--trace 0) or the per-layer ones
   (--trace 1). Exits 1 when a correctness or determinism gate fails.

     e2e.exe --smoke [BENCHMARK.json]

   Runs every workload at a tiny size, traced and untraced, and checks
   that each metric below is emitted with its unit, that the gates
   pass, and that BENCHMARK.json lists exactly these metrics. *)

module Json = Rf_obs.Json

let end_to_end =
  [
    ("wall_s", "s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("converged_vs", "vs");
    ("ok_ratio", "ratio");
  ]

let per_layer =
  let count names = List.map (fun n -> (n, "count")) names in
  [
    ("host.wall_s", "s");
    ("host.setup_s", "s");
    ("host.calib_slice_ms", "ms");
    ("sim.events", "count");
    ("sim.events_per_s", "1/s");
  ]
  @ count [ "sim.heap_peak"; "sim.heap_pushes" ]
  @ [
      ("sim.minor_words_per_event", "words");
      ("sim.alloc_mb", "MB");
      ("sim.major_collections", "count");
    ]
  @ count
      [
        "routing.spf_runs";
        "routing.spf_runs_per_switch";
        "routing.floods";
        "routing.hellos";
        "routing.lsdb_max";
        "routing.rib_routes";
        "routeflow.flow_mods";
        "routeflow.flow_mods_per_switch";
        "routeflow.flow_exports";
        "routeflow.packet_ins";
        "routeflow.packet_outs";
        "routeflow.slow_path";
        "net.frames_forwarded";
        "net.frames_missed";
      ]
  @ [ ("net.fast_path_share", "ratio") ]
  @ count
      [
        "net.queue_dropped";
        "net.flow_entries";
        "flowvisor.to_slice";
        "flowvisor.from_slice";
        "flowvisor.denied";
        "controller.lldp_probes";
        "controller.lldp_rx";
        "rpc.sent";
        "rpc.retx";
        "rpc.handled";
        "rpc.dups";
        "rpc.gave_up";
        "traffic.offered";
        "traffic.delivered";
        "traffic.lost";
      ]
  @ [
      ("traffic.disruption_vs", "vs");
      ("traffic.latency_p50_vms", "vms");
      ("traffic.latency_p99_vms", "vms");
    ]
  @ List.concat_map
      (fun k -> [ ("busy_s." ^ k, "s"); ("events." ^ k, "count") ])
      Traced.kinds
  @ [
      ("routeflow.sync_calls", "count");
      ("routeflow.sync_s", "s");
      ("routeflow.sync_us_p50", "us");
      ("routeflow.sync_us_p99", "us");
      ("probe.spf_full_us", "us");
      ("probe.sync_noop_us", "us");
      ("probe.flow_lookup_ns", "ns");
      ("probe.flow_expire_us", "us");
      ("probe.flow_mod_encode_ns", "ns");
      ("probe.flow_mod_decode_ns", "ns");
      ("probe.snapshot_us", "us");
      ("trace.wall_s", "s");
      ("trace.overhead", "ratio");
    ]

let min_timed = 3

(* Set-ups per timed repetition: at least five, for at least a quarter
   second; their median is the repetition's set-up time. *)
let setup_trials = 5

let setup_budget_s = 0.25

(* --- one repetition, in a child process ----------------------------- *)

type mode = Plain | Timed | Traced

let mode_name = function
  | Plain -> "plain"
  | Timed -> "timed"
  | Traced -> "traced"

(* VmHWM of this process; nan where /proc is missing, which fails the
   run's finiteness check. *)
let peak_rss_mb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> nan
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf l "VmHWM: %d kB" (fun kb ->
                  float_of_int kb /. 1024.0)
          | Some _ -> find ()
        in
        find ())
  with Sys_error _ -> nan

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(* A plain repetition runs the workload once and nothing else, so its
   peak RSS is the workload's. Timed and traced ones also run the
   reference kernel between engine steps. *)
let rep w ~seed mode =
  let log = ref None and before = ref None in
  let traced = mode = Traced in
  let profiler =
    if traced then Some (Rf_obs.Profiler.create ~clock_every:1 ()) else None
  in
  let on_build s = if traced then log := Some (Traced.time_sync_slot s) in
  (* Reference slices sample the host's speed after every set-up and
     all through the measured phase; each phase is scaled by its own. *)
  let setup_calib =
    if mode = Plain then None else Some (Calib.create ~every_s:0.02 ())
  in
  let calib = ref setup_calib in
  let before_measure _ =
    Option.iter (fun (l : Traced.sync_log) -> l.on <- true) !log;
    before := Option.map Rf_obs.Profiler.snapshot profiler;
    calib := Option.map (fun _ -> Calib.create ()) setup_calib
  in
  let setups, setup_budget_s =
    if mode = Timed then (setup_trials, setup_budget_s) else (1, 0.0)
  in
  let between_steps () = Option.iter Calib.maybe !calib in
  let r =
    Workload.run ?profiler ~setups ~setup_budget_s ~on_build ~before_measure
      ~between_steps w ~seed
  in
  let rss = peak_rss_mb () in
  let digest = Workload.digest w r in
  let wordsize = float_of_int (Sys.word_size / 8) in
  let scaled =
    match (setup_calib, !calib) with
    | Some sc, Some c ->
        [
          ("host.calib_slice_ms", 1000.0 *. Calib.mean c);
          ("wall_s", r.wall_s *. Calib.scale c);
          ("setup_s", r.setup_s *. Calib.scale sc);
        ]
    | _ -> []
  in
  let base =
    [
      ("peak_rss_mb", rss);
      ("host.wall_s", r.wall_s);
      ("host.setup_s", r.setup_s);
      ("converged_vs", r.converged_vs);
      ("ok_ratio", r.ok_ratio);
      ("attempted", float_of_int r.attempted);
      ("failed", float_of_int r.failed);
      ("sim.events", float_of_int r.events);
      ( "sim.minor_words_per_event",
        r.minor_words /. float_of_int (max 1 r.events) );
      ("sim.alloc_mb", r.alloc_words *. wordsize /. 1e6);
      ("sim.major_collections", float_of_int r.major_collections);
    ]
    @ scaled @ Workload.counters w r @ Workload.traffic_outcomes r
  in
  (* Tracing results are read only after the digest is taken, and the
     probes run last because they may touch the converged state. *)
  let extra =
    match (profiler, !log, !before) with
    | Some p, Some l, Some b ->
        Traced.busy_metrics ~before:b ~after:(Rf_obs.Profiler.snapshot p)
        @ Traced.sync_metrics l @ Traced.probes r.scenario
    | _ -> []
  in
  let fields =
    List.map
      (fun (k, v) -> Printf.sprintf "%S:%s" k (json_float v))
      (base @ extra)
  in
  Printf.printf "{\"digest\":%S,%s}\n%!" digest (String.concat "," fields)

(* --- orchestration -------------------------------------------------- *)

type record = { digest : string; values : (string * float) list }

let spawn w ~seed mode =
  let args =
    [|
      Sys.executable_name;
      "--rep";
      mode_name mode;
      "--workload";
      w.Workload.name;
      "--size";
      string_of_int w.size;
      "--seed";
      string_of_int seed;
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ ->
      failwith
        (Printf.sprintf "%s %s repetition failed" w.name (mode_name mode)));
  let j = Json.parse (String.trim out) in
  let values =
    List.filter_map
      (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float_opt v))
      (Json.obj_fields j)
  in
  let digest = Option.bind (Json.member "digest" j) Json.to_string_opt in
  { digest = Option.value digest ~default:""; values }

let get r k = try List.assoc k r.values with Not_found -> nan

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  plain : record;
  timed : record list;
  traced : record option;
}

let measure ?(min_timed = min_timed) w ~seed ~seconds ~trace =
  let t0 = Unix.gettimeofday () in
  let plain = spawn w ~seed Plain in
  let rec loop acc n =
    if n >= min_timed && Unix.gettimeofday () -. t0 >= seconds then List.rev acc
    else loop (spawn w ~seed Timed :: acc) (n + 1)
  in
  let timed = loop [] 0 in
  let traced = if trace then Some (spawn w ~seed Traced) else None in
  let all = (plain :: timed) @ Option.to_list traced in
  let deterministic = List.for_all (fun r -> r.digest = plain.digest) all in
  let sum k =
    List.fold_left (fun acc r -> acc + int_of_float (get r k)) 0 all
  in
  let failed = sum "failed" + if deterministic then 0 else 1 in
  let med k = Workload.median (List.map (fun r -> get r k) timed) in
  let traced_wall =
    Option.fold ~none:nan ~some:(fun t -> get t "wall_s") traced
  in
  let value (name, unit) =
    let v =
      match name with
      | "wall_s" | "setup_s" | "host.wall_s" | "host.setup_s"
      | "host.calib_slice_ms" | "sim.minor_words_per_event" | "sim.alloc_mb"
      | "sim.major_collections" ->
          med name
      | "sim.events_per_s" -> get plain "sim.events" /. med "wall_s"
      | "trace.wall_s" -> traced_wall
      | "trace.overhead" -> (traced_wall /. med "wall_s") -. 1.0
      | _ -> (
          match traced with
          | Some t when List.mem_assoc name t.values -> get t name
          | _ -> get plain name)
    in
    (name, v, unit)
  in
  let metrics = List.map value (if trace then per_layer else end_to_end) in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  {
    correct = failed = 0 && finite;
    attempted = sum "attempted";
    failed;
    metrics;
    plain;
    timed;
    traced;
  }

(* --- report --------------------------------------------------------- *)

let pp_report w ~seed r =
  Printf.printf "workload %s (size %d, seed %d), digest %s\n" w.Workload.name
    w.size seed r.plain.digest;
  Printf.printf "  plain: host wall %.3f s, peak rss %.1f MB\n"
    (get r.plain "host.wall_s")
    (get r.plain "peak_rss_mb");
  List.iteri
    (fun i t ->
      Printf.printf
        "  timed %d: host wall %.3f s, host setup %.5f s, calib slice %.3f ms \
         -> wall %.3f s, setup %.5f s\n"
        (i + 1) (get t "host.wall_s") (get t "host.setup_s")
        (get t "host.calib_slice_ms")
        (get t "wall_s") (get t "setup_s"))
    r.timed;
  (match r.traced with
  | Some t ->
      let wall = get t "host.wall_s" in
      let row name busy count =
        Printf.printf "  %-22s %10.4f %6.1f%% %12.0f\n" name busy
          (100.0 *. busy /. wall) count
      in
      Printf.printf "traced: host wall %.3f s, digest %s untraced\n" wall
        (if t.digest = r.plain.digest then "equals" else "DIFFERS FROM");
      Printf.printf "  %-22s %10s %7s %12s\n" "entity kind" "busy s" "share"
        "events";
      List.iter
        (fun k -> row k (get t ("busy_s." ^ k)) (get t ("events." ^ k)))
        Traced.kinds;
      row "sync_flows (calls)" (get t "routeflow.sync_s")
        (get t "routeflow.sync_calls")
  | None -> ());
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-28s %16.6g %s\n" name v unit)
    r.metrics

let print_json r =
  let metric (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

(* --- smoke test ----------------------------------------------------- *)

let listed json key =
  Option.bind (Json.member key json) Json.to_list_opt
  |> Option.value ~default:[]
  |> List.filter_map (fun m ->
         let field k = Option.bind (Json.member k m) Json.to_string_opt in
         match (field "name", field "unit") with
         | Some n, Some u -> Some (n, u)
         | _ -> None)

let smoke manifest =
  let ok = ref true in
  let check what cond =
    if not cond then begin
      ok := false;
      Printf.printf "FAIL %s\n" what
    end
  in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let r = measure ~min_timed:1 w ~seed:7 ~seconds:0.0 ~trace in
          let names = List.map (fun (n, _, u) -> (n, u)) r.metrics in
          let expected = if trace then per_layer else end_to_end in
          let what = Printf.sprintf "%s trace=%b" w.Workload.name trace in
          check (what ^ " metric set") (names = expected);
          check (what ^ " correct") r.correct;
          Printf.printf "%s: %d metrics, attempted %d, failed %d\n" what
            (List.length names) r.attempted r.failed)
        [ false; true ])
    Workload.tiny;
  (match manifest with
  | Some path ->
      let j =
        Json.parse (In_channel.with_open_text path In_channel.input_all)
      in
      check "BENCHMARK.json end_to_end" (listed j "end_to_end" = end_to_end);
      check "BENCHMARK.json per_layer" (listed j "per_layer" = per_layer);
      let workloads =
        Option.bind (Json.member "workloads" j) Json.to_list_opt
        |> Option.value ~default:[]
        |> List.filter_map (fun m ->
               Option.bind (Json.member "name" m) Json.to_string_opt)
      in
      check "BENCHMARK.json workloads"
        (workloads = List.map (fun w -> w.Workload.name) Workload.full)
  | None -> ());
  if !ok then print_endline "smoke: ok" else exit 1

(* --- command line --------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and size = ref 0 and rep_mode = ref "" in
  let smoke_mode = ref false and manifest = ref None in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME ring_serial|fattree_burst|ring_traffic" );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ( "--seconds",
        Arg.Set_float seconds,
        "S host seconds of timed repetitions" );
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics from a traced run");
      ("--size", Arg.Set_int size, "N override the workload size");
      ( "--rep",
        Arg.Set_string rep_mode,
        "MODE run one plain|timed|traced repetition" );
      ("--smoke", Arg.Set smoke_mode, " tiny-size self-check");
    ]
    (fun path -> manifest := Some path)
    "e2e.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !smoke_mode then smoke !manifest
  else
    match
      List.find_opt (fun w -> w.Workload.name = !workload) Workload.full
    with
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
    | Some w -> (
        let w = if !size > 0 then Workload.make w.kind !size else w in
        let modes = [ Plain; Timed; Traced ] in
        match List.find_opt (fun m -> mode_name m = !rep_mode) modes with
        | Some mode -> rep w ~seed:!seed mode
        | None when !rep_mode <> "" ->
            prerr_endline ("unknown repetition mode: " ^ !rep_mode);
            exit 2
        | None ->
            let trace = !trace = 1 in
            let r = measure w ~seed:!seed ~seconds:!seconds ~trace in
            pp_report w ~seed:!seed r;
            print_json r;
            if not r.correct then exit 1)
