(* suite_synth: twelve circuits of the 187-circuit suite, three per
   Table 2 category, as the suite builds them, compiled by compile_cli
   -w trasyn and -w gridsynth at eps 0.07.  Circuits are small and
   share few rotations, so the run is synthesis-bound and bypasses the
   streaming engine.

   The circuits do not change with the seed; the seed picks the
   statevector check's input states and the setup request's rotation.
   Re-instantiating the members per seed moved the summed T count by
   6-10% between seeds (interquartile share over ten seeds), because
   many members repeat a few angles, so a count bound tight enough to
   catch a weaker synthesis failed on the draw of seeds instead.  Every
   member has at most 10 qubits, so its outputs can be checked by
   statevector simulation. *)

let epsilon = 0.07

(* GRIDSYNTH passes per TRASYN pass: one takes ~0.3 s, mostly process
   launches, so a single sample per pass would be noisy. *)
let gridsynth_repeats = 4

(* [simulated]: the workflows whose output of this member must pass
   the statevector check, not be skipped.  A skip happens when the
   summed synthesis error reaches sqrt 2, where the check is vacuous:
   qv-4-4 and vqe-8-3 (56-84 rotations) do under GRIDSYNTH. *)
type member = { name : string; category : string; circuit : Circuit.t; simulated : string list }

let members () =
  let suite = Suite.all () in
  let m ?(simulated = [ "trasyn"; "gridsynth" ]) name =
    let b = List.find (fun (b : Suite.benchmark) -> b.name = name) suite in
    { name; category = Suite.category_to_string b.category; circuit = b.circuit; simulated }
  in
  [
    m "qpe-5";
    m ~simulated:[ "trasyn" ] "qv-4-4";
    m ~simulated:[ "trasyn" ] "vqe-8-3";
    m "maxcut-10-3";
    m "spinglass-10-5";
    m "vcover-8-2";
    m "tfim-10-4";
    m "heis-8-3";
    m "molecule-8-5";
    m "qaoa-4-p3-1";
    m "qaoa-8-p1-2";
    m "qaoa-8-p2-2";
  ]

let write_qasm path c = Out_channel.with_open_bin path (fun oc -> output_string oc (Qasm.to_string c))

let cli ~workflow ~input ~output =
  [| Pb_proc.bin "compile_cli"; "-w"; workflow; "--epsilon"; string_of_float epsilon; "-i"; input; "-o"; output |]

(* The smallest request: a one-rotation circuit through TRASYN, which
   is mostly the step-0 table's construction.  Three launches before
   the first pass and three after every pass, so the median covers the
   whole run rather than its start. *)
let setup_launches = 3

let write_one_rotation ~work ~seed =
  let rng = Random.State.make [| seed; 3 |] in
  let a () = Random.State.float rng 2.0 -. 1.0 in
  write_qasm (Filename.concat work "one.qasm")
    (Circuit.make 1 [ { Circuit.gate = Qgate.U3 (a (), a (), a ()); qubits = [| 0 |] } ])

let setup_once ~work =
  fst
    (Pb_proc.run ~out:(Filename.concat work "one.log")
       (cli ~workflow:"trasyn" ~input:(Filename.concat work "one.qasm")
          ~output:(Filename.concat work "one.out")))

(* Statevector seed per member, so the check's state is an input too. *)
let sim_seed ~seed i = (seed * 1000) + i

(* Statevector coverage: outputs simulated, and outputs skipped because
   their bound is vacuous (at least sqrt 2). *)
type coverage = { mutable simulated : int; mutable skipped : string list }

let coverage () = { simulated = 0; skipped = [] }

let check_output r cov ~seed ~i (m : member) ~workflow ~path (rep : Pb_report.compile_report) =
  let reported = { Pb_check.gates = rep.c_gates; t = rep.c_t; cliffords = rep.c_cliffords } in
  let recount = Result.bind (Pb_check.recount path) (Pb_check.expect_counts ~what:path reported) in
  Pb_result.check r recount;
  let sim =
    match Qasm_reader.of_file path with
    | exception Qasm_reader.Parse_error (_, l, _, e) -> Error (Printf.sprintf "%s:%d: %s" path l e)
    | output ->
        Pb_check.check_circuit ~seed:(sim_seed ~seed i) ~name:path ~input:m.circuit ~output
          ~synth_err:rep.synth_err
  in
  Pb_result.check r sim;
  (match sim with
  | Ok true -> cov.simulated <- cov.simulated + 1
  | Ok false -> cov.skipped <- Filename.basename path :: cov.skipped
  | Error _ -> ());
  let skipped_wrongly = sim = Ok false && List.mem workflow m.simulated in
  if skipped_wrongly then
    Pb_result.error r
      (Printf.sprintf "%s: statevector check skipped (summed synthesis error %.4f), but this output is always simulated"
         path rep.synth_err);
  Result.is_ok recount && Result.is_ok sim && not skipped_wrongly

let report_coverage r cov =
  Pb_result.row r "statevector: %d of %d outputs simulated; skipped (bound >= sqrt 2): %s" cov.simulated
    (cov.simulated + List.length cov.skipped)
    (if cov.skipped = [] then "none" else String.concat " " (List.rev cov.skipped))

type workflow_totals = {
  mutable t : int;
  mutable c : int;
  mutable rot : int;
  mutable gates : int;  (** input gates *)
  mutable wall : float;
}

let totals () = { t = 0; c = 0; rot = 0; gates = 0; wall = 0.0 }

let write_inputs ~work ms =
  List.mapi
    (fun i m ->
      let path = Filename.concat work (m.name ^ ".qasm") in
      write_qasm path m.circuit;
      (i, m, path))
    ms

let run ~work ~seed ~seconds r =
  let ms = members () in
  let inputs = write_inputs ~work ms in
  write_one_rotation ~work ~seed;
  let setups = ref (List.init setup_launches (fun _ -> setup_once ~work)) in
  let first : (string * (Pb_report.compile_report * Digest.t)) list ref = ref [] in
  let passes = ref 0 and gate_rates = ref [] and rz_rates = ref [] and heaps = ref [] in
  let first_pass = ref None in
  let cov = coverage () in
  let t_start = Pb_proc.now () in
  while !passes = 0 || Pb_proc.now () -. t_start < float_of_int seconds do
    incr passes;
    let tr = totals () in
    let top_heap = ref 0 in
    let gss = List.init gridsynth_repeats (fun _ -> totals ()) in
    List.iter
      (fun (workflow, acc) ->
        List.iter
          (fun (i, m, input) ->
            let output = Filename.concat work (Printf.sprintf "%s.%s.out.qasm" m.name workflow) in
            let log = Filename.concat work "compile.log" in
            let wall, text = Pb_proc.run ~out:log (cli ~workflow ~input ~output) in
            match (Pb_report.compile_report text, Pb_report.top_heap_words (Pb_proc.read_file (log ^ ".err"))) with
            | Error e, _ | _, Error e ->
                Pb_result.attempt r ~ok:false;
                Pb_result.error r (m.name ^ ": " ^ e)
            | Ok rep, Ok heap ->
                acc.t <- acc.t + rep.c_t;
                acc.c <- acc.c + rep.c_cliffords;
                acc.rot <- acc.rot + rep.c_rotations;
                acc.gates <- acc.gates + Circuit.length m.circuit;
                acc.wall <- acc.wall +. wall;
                top_heap := max !top_heap heap;
                let key = m.name ^ "/" ^ workflow and digest = Digest.file output in
                let ok =
                  match List.assoc_opt key !first with
                  | None ->
                      first := (key, (rep, digest)) :: !first;
                      check_output r cov ~seed ~i m ~workflow ~path:output rep
                  | Some (rep0, d0) ->
                      let same = rep = rep0 && digest = d0 in
                      if not same then Pb_result.error r (key ^ ": output differs between passes");
                      same
                in
                Pb_result.attempt r ~ok)
          inputs)
      (("trasyn", tr) :: List.map (fun gs -> ("gridsynth", gs)) gss);
    let all = tr :: gss in
    let sum f = List.fold_left (fun a w -> a +. f w) 0.0 all in
    gate_rates := (sum (fun w -> float_of_int w.gates) /. sum (fun w -> w.wall)) :: !gate_rates;
    List.iter (fun gs -> rz_rates := (float_of_int gs.rot /. gs.wall) :: !rz_rates) gss;
    heaps := Pb_stream.mb_of_words !top_heap :: !heaps;
    let gs = List.hd gss in
    if !first_pass = None then first_pass := Some (tr, gs);
    Pb_result.row r "pass %d: trasyn %d rotations in %.2f s, gridsynth %d rotations in %s s, top heap %d words"
      !passes tr.rot tr.wall gs.rot
      (String.concat "/" (List.map (fun g -> Printf.sprintf "%.3f" g.wall) gss))
      !top_heap;
    setups := List.init setup_launches (fun _ -> setup_once ~work) @ !setups
  done;
  let setups = Array.of_list !setups in
  Pb_result.metric r "setup_s" "s" ~samples:(Array.length setups) (Pb_stats.median setups);
  Pb_result.row r "setup: 1-rotation trasyn compile, median of %d launches: %.4f s" (Array.length setups)
    (Pb_stats.median setups);
  let passes = !passes in
  let tr, gs = Option.get !first_pass in
  Pb_result.metric r "gates_per_s" "1/s" ~samples:passes (Pb_stats.median (Array.of_list !gate_rates));
  Pb_result.metric r "peak_heap_mb" "MB" ~samples:passes (Pb_stats.median (Array.of_list !heaps));
  Pb_result.metric r "t_count" "count" ~samples:1 (float_of_int tr.t);
  Pb_result.metric r "clifford_count" "count" ~samples:1 (float_of_int tr.c);
  Pb_result.metric r "t_count_rz" "count" ~samples:1 (float_of_int gs.t);
  Pb_result.metric r "rz_rotations_per_s" "1/s" ~samples:(List.length !rz_rates)
    (Pb_stats.median (Array.of_list !rz_rates));
  Pb_result.row r "outputs: trasyn T=%d Cliffords=%d, gridsynth T=%d Cliffords=%d over %d circuits"
    tr.t tr.c gs.t gs.c (List.length ms);
  report_coverage r cov

(* ---- traced run: the same compiles in-process, layer by layer ---- *)

(* The TRASYN settings the compile workflows use (the stream engine's
   defaults are the pipeline's). *)
let trasyn = (Stream_compile.config ()).Stream_compile.trasyn

(* The two workflows; with [synth], each chain's backends are timed
   inside the run (U3 chain, Rz chain). *)
let workflows ?synth ~epsilon () =
  let chain pick base = Option.map (fun s -> Pb_synth.wrap (pick s) base) synth in
  let u3 = chain fst Synth.u3_chain and rz = chain snd (Synth.rz_chain ()) in
  [
    ("trasyn", fun c -> Pipeline.run_trasyn_result ~epsilon ~jobs:1 ?chain:u3 c);
    ("gridsynth", fun c -> Pipeline.run_gridsynth_result ~epsilon ~jobs:1 ?chain:rz c);
  ]

(* Read, compile with both workflows and print every member; returns
   the per-layer seconds (reader, pipeline, printer) and the bytes
   printed. *)
let compile_all ?synth r cov ~epsilon ~seed ~work inputs =
  Pipeline.clear_caches ();
  let read_s = ref 0.0 and run_s = ref 0.0 and print_s = ref 0.0 and bytes = ref 0 in
  let workflows = workflows ?synth ~epsilon () in
  List.iter
    (fun (i, m, input) ->
      let c = Pb_result.timed read_s (fun () -> Qasm_reader.of_file input) in
      List.iter
        (fun (name, f) ->
          match Pb_result.timed run_s (fun () -> f c) with
          | Error e ->
              Pb_result.attempt r ~ok:false;
              Pb_result.error r (m.name ^ ": " ^ Robust.failure_to_string e)
          | Ok (s : Pipeline.synthesized) ->
              let path = Filename.concat work (Printf.sprintf "%s.%s.inproc.qasm" m.name name) in
              Pb_result.timed print_s (fun () -> write_qasm path s.circuit);
              bytes := !bytes + (Unix.stat path).Unix.st_size;
              let rep =
                {
                  Pb_report.c_gates = Circuit.length s.circuit;
                  c_t = Circuit.t_count s.circuit;
                  c_cliffords = Circuit.clifford_count s.circuit;
                  synth_err = s.total_synth_error;
                  c_rotations = s.rotations_synthesized;
                  c_degraded = List.length s.degraded;
                }
              in
              Pb_result.attempt r ~ok:(check_output r cov ~seed ~i m ~workflow:name ~path rep))
        workflows)
    inputs;
  (!read_s, !run_s, !print_s, !bytes)

(* The pipeline's layers over [inputs] at [epsilon]: the step-0 table,
   both workflows on one domain (untraced, traced, untraced again, so
   warm-up favours neither side), the settings search on its own, and
   the GRIDSYNTH workflow's Rz rotations served the way serve_mix
   serves them (at its epsilon): replayed against a fresh store, where
   a repeated angle is a hit, then sent as rz requests to an in-process
   server on serve_mix's low-rate schedule. *)
type pipeline = {
  table_s : float;
  compile_wall : float;  (** traced compiles, with the table *)
  plain_wall : float;  (** the same untraced, mean of the two *)
  read_s : float;
  run_s : float;
  print_s : float;
  bytes : int;
  best_for_s : float;
  u3 : Pb_synth.t;
  rz : Pb_synth.t;
  rz_requests : int;
  replay_wall : float;
  lookup_s : float;
  put_s : float;
  replay_synth_s : float;
  hit_rate : float;
  server_wall : float;
  submit_s : float;
  pace_s : float;
  drain_wait_s : float;
  stats : Obs.Json.t;
}

let pipeline_layers r ~work ~epsilon ~seed inputs =
  let table_s = ref 0.0 in
  Pb_result.timed table_s (fun () ->
      ignore (Ma_table.get_for ~gate_set:"cliffordt" trasyn.Trasyn.table_t));
  let untraced () =
    let t0 = Pb_proc.now () in
    ignore (compile_all (Pb_result.create ()) (coverage ()) ~epsilon ~seed ~work inputs);
    Pb_proc.now () -. t0 +. !table_s
  in
  let plain_wall = untraced () in
  let u3 = Pb_synth.create () and rz = Pb_synth.create () in
  let cov = coverage () in
  let compile_t0 = Pb_proc.now () in
  let read_s, run_s, print_s, bytes = compile_all ~synth:(u3, rz) r cov ~epsilon ~seed ~work inputs in
  let compile_wall = Pb_proc.now () -. compile_t0 +. !table_s in
  let plain_wall = (plain_wall +. untraced ()) /. 2.0 in
  report_coverage r cov;
  (* The settings search, timed on its own over the same circuits and
     subtracted from the pipeline's time.  Its Rz IR output gives the
     GRIDSYNTH workflow's rotations in circuit order. *)
  let best_for_s = ref 0.0 and rz_angles = ref [] in
  List.iter
    (fun (_, m, _) ->
      List.iter
        (fun ir ->
          let _, c = Pb_result.timed best_for_s (fun () -> Settings.best_for ir m.circuit) in
          if ir = Settings.Rz_ir then
            List.iter
              (fun (i : Circuit.instr) ->
                match i.Circuit.gate with Qgate.Rz a -> rz_angles := a :: !rz_angles | _ -> ())
              c.Circuit.instrs)
        [ Settings.U3_ir; Settings.Rz_ir ])
    inputs;
  let rz_angles = List.rev !rz_angles in
  let replay_wall, (lookup_s, put_s, replay_synth_s, hit_rate, _, _) =
    Pb_serve.replay ~dir:(Filename.concat work "replay.store") ~timed:true ~palette:[||] rz_angles
  in
  let server_wall, submit_s, pace_s, drain_wait_s, stats, all_answered =
    Pb_serve.in_process_server ~dir:(Filename.concat work "server.store") ~palette:[||]
      (List.map (fun a -> Pb_serve.Single a) rz_angles)
  in
  if not all_answered then Pb_result.error r "in-process server left requests unanswered";
  Pb_result.attempt r ~ok:all_answered;
  {
    table_s = !table_s; compile_wall; plain_wall; read_s; run_s; print_s; bytes; best_for_s = !best_for_s; u3; rz;
    rz_requests = List.length rz_angles; replay_wall; lookup_s; put_s; replay_synth_s; hit_rate; server_wall;
    submit_s; pace_s; drain_wait_s; stats;
  }
