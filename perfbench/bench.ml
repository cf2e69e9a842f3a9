(* The benchmark's entry point.

     bench.exe --workload stream_qaoa|suite_synth|serve_mix --seed N
               --seconds S --trace 0|1

   Untraced runs drive the release compile_cli and serve_cli and print
   the end-to-end metrics; traced runs call the libraries in-process
   and print per-layer times that add up to the traced wall.  The last
   stdout line is the JSON result; a failed correctness check makes
   the exit code 1.  perfbench/run.sh builds everything and calls this
   from the root of the checkout. *)

let workloads = [ "stream_qaoa"; "suite_synth"; "serve_mix" ]

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let result_json (r : Pb_result.t) =
  let open Obs.Json in
  Obj
    [
      ("correct", Bool (r.errors = []));
      ("attempted", Num (float_of_int r.attempted));
      ("failed", Num (float_of_int r.failed));
      ( "metrics",
        Obj
          (List.rev_map
             (fun (m : Pb_result.metric) -> (m.name, Obj [ ("value", Num m.value); ("unit", Str m.unit_) ]))
             r.metrics) );
    ]

let print_table ~workload ~trace (r : Pb_result.t) =
  Printf.printf "== %s (%s)\n" workload (if trace then "traced" else "end to end");
  List.iter (Printf.printf "%s\n") (List.rev r.rows);
  List.iter
    (fun (m : Pb_result.metric) -> Printf.printf "  %-50s %16.6g %-6s n=%d\n" m.name m.value m.unit_ m.samples)
    (List.rev r.metrics);
  List.iter (Printf.printf "CHECK FAILED: %s\n") (List.rev r.errors)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Symbol (workloads, ( := ) workload), " which workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if !workload = "" then (prerr_endline "bench: --workload is required"; exit 2);
  if !trace <> 0 && !trace <> 1 then (prerr_endline "bench: --trace takes 0 or 1"; exit 2);
  if Pb_build.profile <> "release" then begin
    Printf.eprintf "bench: built with the %s profile; numbers are only reported from a release build\n"
      Pb_build.profile;
    exit 2
  end;
  (* A server that goes away must surface as EPIPE, not kill the run;
     TERM and INT exit through at_exit, which kills and reaps children. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 143))) [ Sys.sigterm; Sys.sigint ];
  let trace = !trace = 1 and workload = !workload and seed = !seed and seconds = !seconds in
  let work = Filename.concat "_perfbench" (Printf.sprintf "work-%s-%d" workload (Unix.getpid ())) in
  mkdir_p work;
  (* Also on TERM/INT: children first, then their files. *)
  at_exit (fun () ->
      Pb_proc.stop_all ();
      rm_rf work);
  let prov = Pb_prov.json ~work ~workload ~seed ~seconds ~trace in
  let r = Pb_result.create () in
  let t0 = Pb_proc.now () in
  (try
     match (workload, trace) with
     | "stream_qaoa", false -> Pb_stream.run ~work ~seed ~seconds r
     | "stream_qaoa", true -> Pb_trace.stream_qaoa ~work ~seed r
     | "suite_synth", false -> Pb_suite.run ~work ~seed ~seconds r
     | "suite_synth", true -> Pb_trace.suite_synth ~work ~seed r
     | "serve_mix", false -> Pb_serve.run ~work ~seed ~seconds r
     | _ -> Pb_serve.traced ~work ~seed ~seconds r
   with e ->
     Pb_result.attempt r ~ok:false;
     Pb_result.error r ("benchmark aborted: " ^ Printexc.to_string e));
  Pb_result.row r "run wall %.2f s" (Pb_proc.now () -. t0);
  print_table ~workload ~trace r;
  let results = Filename.concat "_perfbench" "results" in
  mkdir_p results;
  let json = result_json r in
  let file = Filename.concat results (Printf.sprintf "%s-seed%d-trace%d.json" workload seed (Bool.to_int trace)) in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc
        (Obs.Json.pretty
           (Obs.Json.Obj
              [ ("provenance", prov); ("result", json); ("table", Obs.Json.Arr (List.rev_map (fun s -> Obs.Json.Str s) r.rows)) ]));
      output_char oc '\n');
  Printf.printf "provenance: %s\n" (Obs.Json.to_string prov);
  print_endline (Obs.Json.to_string json);
  exit (if r.errors = [] then 0 else 1)
