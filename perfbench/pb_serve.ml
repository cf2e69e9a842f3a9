(* serve_mix: serve_cli over a Unix socket with a fresh store, one
   worker thread and nproc planner domains, driven open loop from one
   connection.  About 88% of requests are rz on a pre-warmed angle
   palette (store reads), 10% are fresh angles (synthesis plus a store
   append) and 2% are 4-element batches (the planner path).  The store
   is read and written and synthesis sits only on the tail, so a store,
   server or engine change shows here and a stream-printing change
   should not. *)

let epsilon = 0.07
let palette_size = 32
let fresh_share = 0.10
let batch_share = 0.02
let batch_len = 4
let setup_launches = 5

(* Fixed offered rates, about 1/3 and 2/3 of the knee (~4.8k rps, where
   the admission queue starts shedding) measured on a 2-core x86-64
   host, and the p99 limit that defines max_rps. *)
let low_rps = 1600.0
let high_rps = 3200.0
let p99_limit_ms = 10.0
let drain_s = 5.0

type request = Single of float | Batch of float array

type mix = { rng : Random.State.t; palette : float array }

let mix ~seed =
  let rng = Random.State.make [| seed; 4 |] in
  let angle () = (Random.State.float rng 2.0 -. 1.0) *. Float.pi in
  { rng; palette = Array.init palette_size (fun _ -> angle ()) }

let draw m =
  let pal () = m.palette.(Random.State.int m.rng palette_size) in
  let u = Random.State.float m.rng 1.0 in
  if u < batch_share then Batch (Array.init batch_len (fun _ -> pal ()))
  else if u < batch_share +. fresh_share then Single ((Random.State.float m.rng 2.0 -. 1.0) *. Float.pi)
  else Single (pal ())

let rz_fields theta = Printf.sprintf {|"op":"rz","theta":%.17g,"epsilon":%g|} theta epsilon

let line id = function
  | Single theta -> Printf.sprintf {|{"id":%d,%s}|} id (rz_fields theta)
  | Batch thetas ->
      Printf.sprintf {|{"op":"batch","id":%d,"requests":[%s]}|} id
        (String.concat "," (Array.to_list (Array.map (fun t -> "{" ^ rz_fields t ^ "}") thetas)))

(* ---- judging responses ---- *)

let num k j = match Obs.Json.member k j with Some (Obs.Json.Num f) -> Some f | _ -> None
let str k j = match Obs.Json.member k j with Some (Obs.Json.Str s) -> Some s | _ -> None
let is_ok j = Obs.Json.member "ok" j = Some (Obs.Json.Bool true)

let check_rz theta j =
  match (str "word" j, num "distance" j, num "t_count" j) with
  | Some word, Some distance, Some t ->
      Pb_check.check_rz_word ~theta ~epsilon ~word ~distance ~t_count:(int_of_float t)
  | _ -> Error ("rz response without word/distance/t_count: " ^ Obs.Json.to_string j)

(* Served, shed, or failed; a wrong word is a failure and an error. *)
let judge errors req j =
  if is_ok j then
    let checked =
      match req with
      | Single theta -> check_rz theta j
      | Batch thetas -> (
          match Obs.Json.member "results" j with
          | Some (Obs.Json.Arr subs) when List.length subs = Array.length thetas ->
              List.fold_left
                (fun acc (theta, sub) ->
                  Result.bind acc (fun () ->
                      if is_ok sub then check_rz theta sub
                      else Error ("batch element failed: " ^ Obs.Json.to_string sub)))
                (Ok ())
                (List.combine (Array.to_list thetas) subs)
          | _ -> Error ("malformed batch response: " ^ Obs.Json.to_string j))
    in
    match checked with
    | Ok () -> Pb_openloop.Served
    | Error e ->
        errors := e :: !errors;
        Pb_openloop.Failed
  else if str "error" j = Some "overloaded" then Pb_openloop.Shed
  else Pb_openloop.Failed

(* ---- the server process ---- *)

type server = { pid : int; conn : Pb_openloop.conn }

let spawn ~work ~tag =
  let sock = Filename.concat work (tag ^ ".sock") in
  let store = Filename.concat work (tag ^ ".store") in
  let argv =
    [|
      Pb_proc.bin "serve_cli"; "--socket"; sock; "--store"; store; "--workers"; "1"; "-j";
      string_of_int (Domain.recommended_domain_count ()); "--epsilon"; string_of_float epsilon;
    |]
  in
  let pid = Pb_proc.spawn ~out:(Filename.concat work (tag ^ ".log")) argv in
  let give_up = Pb_proc.now () +. 30.0 in
  let rec connect () =
    match Pb_openloop.connect sock with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when Pb_proc.now () < give_up ->
        Unix.sleepf 0.0005;
        connect ()
  in
  { pid; conn = connect () }

(* One request, waiting for its answer (closed loop). *)
let call s line =
  Pb_openloop.send s.conn line;
  let answer = ref None in
  let give_up = Pb_proc.now () +. 30.0 in
  while !answer = None do
    if Pb_proc.now () > give_up then failwith "serve_cli did not answer within 30 s";
    Pb_openloop.poll s.conn ~timeout:1.0 ~on_line:(fun l ->
        match Obs.Json.parse l with Ok j -> answer := Some j | Error e -> failwith e)
  done;
  Option.get !answer

let shutdown s =
  (try ignore (call s {|{"op":"shutdown"}|}) with _ -> ());
  Pb_openloop.close s.conn;
  match Pb_proc.wait s.pid with
  | Unix.WEXITED 0 -> Ok ()
  | st -> Error ("serve_cli " ^ Pb_proc.status_string st)

let setup_s ~work r =
  let walls =
    Array.init setup_launches (fun k ->
        let t0 = Pb_proc.now () in
        let s = spawn ~work ~tag:(Printf.sprintf "setup%d" k) in
        let pong = call s {|{"op":"ping"}|} in
        let wall = Pb_proc.now () -. t0 in
        if not (is_ok pong) then Pb_result.error r ("ping failed: " ^ Obs.Json.to_string pong);
        Pb_result.check r (shutdown s);
        wall)
  in
  Pb_result.metric r "setup_s" "s" ~samples:setup_launches (Pb_stats.median walls);
  Pb_result.row r "setup: serve_cli spawn -> first ping reply, median of %d launches: %.4f s"
    setup_launches (Pb_stats.median walls)

(* ---- load phases ---- *)

type load = { s : server; m : mix; mutable next_id : int; errors : string list ref; reqs : (int, request) Hashtbl.t }

let phase ld ~rate ~duration =
  let first_id = ld.next_id in
  let request id =
    let q = draw ld.m in
    Hashtbl.replace ld.reqs id q;
    line id q
  in
  let judge id j = judge ld.errors (Hashtbl.find ld.reqs id) j in
  let ph =
    Pb_openloop.run ld.s.conn ~clock:Pb_proc.now ~rate ~duration ~first_id ~request ~judge ~drain_s
  in
  ld.next_id <- first_id + Array.length ph.Pb_openloop.lat_ms;
  Hashtbl.reset ld.reqs;
  ph

let meets_limit (ph : Pb_openloop.phase) =
  let p99 = Pb_stats.quantile 0.99 ph.lat_ms in
  ph.shed = 0 && ph.failed = 0
  && (match p99 with Some v -> v <= p99_limit_ms | None -> false)
  && float_of_int ph.backlog_at_end <= ph.rate *. p99_limit_ms /. 1e3 +. 1.0

let describe r name (ph : Pb_openloop.phase) =
  let q p = match Pb_stats.quantile p ph.lat_ms with Some v -> Printf.sprintf "%.3f" v | None -> "n/a" in
  Pb_result.row r
    "%-9s %7.1f rps offered (%7.1f kept), n=%d: p50 %s ms, p99 %s ms; shed %d, failed %d; backlog %d; generator late max %.3f ms, p99 %s ms"
    name ph.rate ph.achieved_rate (Array.length ph.lat_ms) (q 0.5) (q 0.99) ph.shed ph.failed
    ph.backlog_at_end ph.late.max_ms
    (match ph.late.p99_ms with Some v -> Printf.sprintf "%.3f" v | None -> "n/a")

let account r (ph : Pb_openloop.phase) =
  for _ = 1 to ph.served do Pb_result.attempt r ~ok:true done;
  for _ = 1 to ph.shed + ph.failed do Pb_result.attempt r ~ok:false done

(* Long enough for 1100 samples, so p99 has ten beyond it. *)
let step_duration rate = Float.max 1.0 (1100.0 /. rate)

(* Highest passing rate: climb by 25% from [start] until a step fails
   (or fall until one passes), then bisect the bracket three times. *)
let max_rps r ld ~start =
  let try_rate rate =
    let ph = phase ld ~rate ~duration:(step_duration rate) in
    describe r "ramp" ph;
    Unix.sleepf 0.2;
    (meets_limit ph, ph)
  in
  let rec climb rate best steps =
    let ok, ph = try_rate rate in
    if ok && steps < 12 then climb (rate *. 1.25) (Some ph) (steps + 1)
    else if ok then (Some ph, rate *. 1.25)
    else (best, rate)
  in
  let rec fall rate steps =
    let ok, ph = try_rate rate in
    if ok || steps >= 8 then ((if ok then Some ph else None), rate *. 1.25) else fall (rate /. 1.25) (steps + 1)
  in
  let best, fail_rate =
    match climb start None 0 with
    | None, _ -> fall (start /. 1.25) 0
    | b -> b
  in
  let rec bisect best lo hi k =
    if k = 0 then best
    else
      let mid = sqrt (lo *. hi) in
      let ok, ph = try_rate mid in
      if ok then bisect (Some ph) mid hi (k - 1) else bisect best lo mid (k - 1)
  in
  match best with
  | None -> None
  | Some ph -> bisect best ph.Pb_openloop.rate fail_rate 3

let run ~work ~seed ~seconds r =
  setup_s ~work r;
  let s = spawn ~work ~tag:"serve" in
  let m = mix ~seed in
  let errors = ref [] in
  Fun.protect ~finally:(fun () -> Pb_result.check r (shutdown s)) @@ fun () ->
  (* Warm the palette (closed loop, untimed): these are the store's reads. *)
  Array.iteri
    (fun i theta ->
      let j = call s (line (-1 - i) (Single theta)) in
      match judge errors (Single theta) j with
      | Pb_openloop.Served -> ()
      | _ -> Pb_result.error r ("palette warm-up failed: " ^ Obs.Json.to_string j))
    m.palette;
  let ld = { s; m; next_id = 0; errors; reqs = Hashtbl.create 4096 } in
  let d = float_of_int seconds /. 4.0 in
  let low = phase ld ~rate:low_rps ~duration:d in
  describe r "low" low;
  account r low;
  Unix.sleepf 0.2;
  let high = phase ld ~rate:high_rps ~duration:d in
  describe r "high" high;
  account r high;
  Unix.sleepf 0.2;
  let best = max_rps r ld ~start:high_rps in
  List.iter (Pb_result.error r) !errors;
  let q name p ph =
    match Pb_stats.quantile p ph.Pb_openloop.lat_ms with
    | Some v -> Pb_result.metric r name "ms" ~samples:(Array.length ph.lat_ms) v
    | None -> Pb_result.error r (name ^ ": too few samples for this quantile")
  in
  q "lat_p50_ms.low" 0.5 low;
  q "lat_p99_ms.low" 0.99 low;
  q "lat_p99_ms.high" 0.99 high;
  match best with
  | Some ph ->
      Pb_result.metric r "max_rps" "1/s" ~samples:(Array.length ph.lat_ms) ph.achieved_rate;
      Pb_result.row r "max_rps: %.1f (p99 limit %.0f ms, nothing shed, no growing backlog)"
        ph.achieved_rate p99_limit_ms
  | None -> Pb_result.error r "max_rps: no offered rate met the p99 limit"

(* ---- traced run: the store and the server engine in-process ---- *)

(* The request targets of one low-rate phase, flattened. *)
let phase_targets ~seed ~seconds =
  let m = mix ~seed in
  let n = int_of_float (low_rps *. float_of_int seconds /. 4.0) in
  let reqs = List.init n (fun _ -> draw m) in
  (m, reqs)

let thetas reqs = List.concat_map (function Single t -> [ t ] | Batch ts -> Array.to_list ts) reqs

(* Replay [thetas] against a fresh store the way the server's chain
   does: look up, and on a miss synthesize and put.  With [timed],
   each store call and each synthesis is timed on its own. *)
let replay ~dir ~timed ~palette thetas =
  let st = match Store.open_store dir with Ok st -> st | Error e -> failwith ("store: " ^ e) in
  Fun.protect ~finally:(fun () -> Store.close st) @@ fun () ->
  let lookup_s = ref 0.0 and put_s = ref 0.0 and synth_s = ref 0.0 in
  let hits = ref 0 and lookups = ref 0 and calls = ref 0 and fallbacks = ref 0 in
  let chain = Synth.rz_chain () and config = Synth.config ~epsilon () in
  let time acc f = if timed then Pb_result.timed acc f else f () in
  let serve theta =
    let a = Pipeline.canonical_angle theta in
    let target = Store.Rz a in
    incr lookups;
    match time lookup_s (fun () -> Store.lookup st ~epsilon target) with
    | Some _ -> incr hits
    | None -> (
        incr calls;
        match time synth_s (fun () -> Synth.run_chain ~config chain (Synth.Rz a)) with
        | Error f -> failwith (Robust.failure_to_string f)
        | Ok at ->
            fallbacks := !fallbacks + at.Robust.fallbacks;
            let entry =
              {
                Store.gate_set = Store.default_gate_set;
                target;
                eps_req = epsilon;
                distance = at.Robust.distance;
                word = at.Robust.word;
                t_count = Ctgate.t_count at.Robust.word;
                backend = at.Robust.backend;
                chain = Synth.chain_id chain;
              }
            in
            time put_s (fun () -> Store.put st entry))
  in
  let t0 = Pb_proc.now () in
  Array.iter serve palette;
  List.iter serve thetas;
  ( Pb_proc.now () -. t0,
    (!lookup_s, !put_s, !synth_s, float_of_int !hits /. float_of_int !lookups, !calls, !fallbacks) )

(* The server engine in-process, fed the phase's request lines on the
   low-rate schedule; submit_line is timed per call. *)
let in_process_server ~dir ~palette reqs =
  let st = match Store.open_store dir with Ok st -> st | Error e -> failwith ("store: " ^ e) in
  Synth.set_store (Some st);
  let answered = Atomic.make 0 in
  let cfg =
    {
      Server.default_config with
      Server.epsilon;
      workers = 1;
      planner_jobs = Some (Domain.recommended_domain_count ());
    }
  in
  let server = Server.create ~store:st ~emit:(fun _ -> Atomic.incr answered) cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.drain server;
      Synth.set_store None;
      Store.close st)
  @@ fun () ->
  Array.iteri (fun i t -> ignore (Server.submit_line server (line (-1 - i) (Single t)))) palette;
  while Atomic.get answered < Array.length palette do Unix.sleepf 0.001 done;
  let submit_s = ref 0.0 and pace_s = ref 0.0 and drain_wait_s = ref 0.0 in
  let t0 = Pb_proc.now () in
  List.iteri
    (fun i q ->
      let due = Pb_openloop.due ~t0 ~rate:low_rps i in
      Pb_result.timed pace_s (fun () ->
          let wait = due -. Pb_proc.now () in
          if wait > 0.0 then Unix.sleepf wait);
      ignore (Pb_result.timed submit_s (fun () -> Server.submit_line server (line i q))))
    reqs;
  let expected = Array.length palette + List.length reqs in
  Pb_result.timed drain_wait_s (fun () ->
      let give_up = Pb_proc.now () +. drain_s in
      while Atomic.get answered < expected && Pb_proc.now () < give_up do Unix.sleepf 0.001 done);
  let wall = Pb_proc.now () -. t0 in
  (wall, !submit_s, !pace_s, !drain_wait_s, Server.stats_json server, Atomic.get answered = expected)

(* A number in a [Server.stats_json] snapshot, by path; nan if absent. *)
let stat stats path =
  List.fold_left (fun j k -> Option.bind j (Obs.Json.member k)) (Some stats) path
  |> function Some (Obs.Json.Num f) -> f | _ -> nan

let traced ~work ~seed ~seconds r =
  let m, reqs = phase_targets ~seed ~seconds in
  let ts = thetas reqs in
  let plain_wall, _ = replay ~dir:(Filename.concat work "plain.store") ~timed:false ~palette:m.palette ts in
  let replay_wall, (lookup_s, put_s, synth_s, hit_rate, calls, fallbacks) =
    replay ~dir:(Filename.concat work "traced.store") ~timed:true ~palette:m.palette ts
  in
  let plain_wall2, _ = replay ~dir:(Filename.concat work "plain2.store") ~timed:false ~palette:m.palette ts in
  let plain_wall = (plain_wall +. plain_wall2) /. 2.0 in
  let server_wall, submit_s, pace_s, drain_wait_s, stats, all_answered =
    in_process_server ~dir:(Filename.concat work "server.store") ~palette:m.palette reqs
  in
  if not all_answered then Pb_result.error r "in-process server left requests unanswered";
  Pb_result.attempt r ~ok:all_answered;
  let stat = stat stats in
  let wall = replay_wall +. server_wall in
  let self = lookup_s +. put_s +. synth_s +. submit_s +. pace_s +. drain_wait_s in
  let mt name unit_ v = Pb_result.metric r name unit_ ~samples:1 v in
  mt "store.lookup_s" "s" lookup_s;
  mt "store.put_s" "s" put_s;
  mt "store.hit_rate" "share" hit_rate;
  mt "synth.run_chain.rz.s" "s" synth_s;
  mt "synth.run_chain.rz.calls" "count" (float_of_int calls);
  mt "synth.run_chain.rz.fallbacks" "count" (float_of_int fallbacks);
  mt "pipeline.server.submit_s" "s" submit_s;
  mt "pipeline.server.queue_wait_p99_ms" "ms" (1e3 *. stat [ "queue_wait"; "p99_s" ]);
  mt "pipeline.server.latency_p99_ms" "ms" (1e3 *. stat [ "latency"; "p99_s" ]);
  mt "pipeline.server.shed" "count" (stat [ "shed" ]);
  mt "pipeline.server.retries" "count" (stat [ "retries" ]);
  mt "trace.wall_s" "s" wall;
  mt "trace.unattributed_s" "s" (wall -. self);
  mt "trace.overhead_pct" "%" (100.0 *. (replay_wall -. plain_wall) /. plain_wall);
  let row name s = Pb_result.row r "  %-42s %9.3f s  %5.1f%%" name s (100.0 *. s /. wall) in
  Pb_result.row r "traced wall %.3f s: store replay %.3f s (untraced %.3f s) + in-process server %.3f s at %.0f rps"
    wall replay_wall plain_wall server_wall low_rps;
  row "store.lookup" lookup_s;
  row "store.put" put_s;
  row "synth.run_chain rz (misses)" synth_s;
  row "server.submit_line (decode + admit)" submit_s;
  row "client pacing (open-loop schedule)" pace_s;
  row "client waiting for the last answers" drain_wait_s;
  row "unattributed" (wall -. self);
  Pb_result.row r "  server stats (its own 3-per-decade histograms): queue_wait p99 %.3f ms, latency p99 %.3f ms"
    (1e3 *. stat [ "queue_wait"; "p99_s" ]) (1e3 *. stat [ "latency"; "p99_s" ])
