(* The traced run (--trace 1), the same for every compile workload: the
   workload's QASM inputs go through the streaming engine, its circuits
   through the non-streaming pipeline (both workflows), and the
   GRIDSYNTH workflow's rotations through a store and an in-process
   server, all in-process and layer by layer.  Every per-layer metric
   is measured on every workload, and the layers' self times add up to
   the traced wall; what does not is reported as unattributed. *)

let layer_row r ~wall name s = Pb_result.row r "  %-42s %9.3f s  %5.1f%%" name s (100.0 *. s /. wall)

let run r ~work ~seed ~epsilon ~engine_inputs ~members =
  let e = Pb_stream.engine_layers r ~work ~epsilon engine_inputs in
  let p = Pb_suite.pipeline_layers r ~work ~epsilon ~seed members in
  let engine_self = e.run_s -. e.read_s -. e.print_s -. e.window_s -. e.synth.s in
  let residual = p.run_s -. p.best_for_s -. p.u3.s -. p.rz.s in
  let stat = Pb_serve.stat p.stats in
  let wall = e.wall +. p.compile_wall +. p.replay_wall +. p.server_wall in
  let self =
    e.run_s +. p.table_s +. p.read_s +. p.run_s +. p.print_s +. p.lookup_s +. p.put_s +. p.replay_synth_s
    +. p.submit_s +. p.pace_s +. p.drain_wait_s
  in
  let plain = e.plain_wall +. p.plain_wall in
  let m name unit_ v = Pb_result.metric r name unit_ ~samples:1 v in
  m "circuit.qasm_reader.s" "s" (e.read_s +. p.read_s);
  m "circuit.qasm_reader.events_per_s" "1/s" (float_of_int e.events /. e.read_s);
  m "transpile.stream_opt.s" "s" e.window_s;
  m "transpile.stream_opt.gates_out" "count" (float_of_int e.window_out);
  m "pipeline.stream_compile.self_s" "s" engine_self;
  m "circuit.qasm.print_s" "s" (e.print_s +. p.print_s);
  m "circuit.qasm.print_bytes" "bytes" (float_of_int (e.bytes + p.bytes));
  m "pipeline.stream_compile.alloc_words_per_out_gate" "words" (e.alloc_words /. float_of_int e.gates_out);
  m "pipeline.stream_compile.unique_syntheses" "count" (float_of_int e.unique);
  m "pipeline.stream_compile.dedup_hits" "count" (float_of_int e.dedup_hits);
  m "cliffordt.ma_table.build_s" "s" p.table_s;
  m "transpile.settings.best_for_s" "s" p.best_for_s;
  m "synth.run_chain.u3.s" "s" p.u3.s;
  m "synth.run_chain.u3.calls" "count" (float_of_int p.u3.calls);
  m "synth.run_chain.u3.fallbacks" "count" (float_of_int p.u3.fallbacks);
  m "synth.run_chain.rz.s" "s" (e.synth.s +. p.rz.s);
  m "synth.run_chain.rz.calls" "count" (float_of_int (e.synth.calls + p.rz.calls));
  m "synth.run_chain.rz.fallbacks" "count" (float_of_int (e.synth.fallbacks + p.rz.fallbacks));
  m "pipeline.run.residual_s" "s" residual;
  m "store.lookup_s" "s" p.lookup_s;
  m "store.put_s" "s" p.put_s;
  m "store.hit_rate" "share" p.hit_rate;
  m "pipeline.server.submit_s" "s" p.submit_s;
  m "pipeline.server.queue_wait_p99_ms" "ms" (1e3 *. stat [ "queue_wait"; "p99_s" ]);
  m "pipeline.server.latency_p99_ms" "ms" (1e3 *. stat [ "latency"; "p99_s" ]);
  m "pipeline.server.shed" "count" (stat [ "shed" ]);
  m "pipeline.server.retries" "count" (stat [ "retries" ]);
  m "trace.wall_s" "s" wall;
  m "trace.unattributed_s" "s" (wall -. self);
  (* The store replay and the server phase are not run untraced: the
     server is paced by its schedule. *)
  m "trace.overhead_pct" "%" (100.0 *. (e.wall +. p.compile_wall -. plain) /. plain);
  Pb_result.row r
    "traced wall %.3f s: stream engine %.3f s (untraced %.3f s, %d files, %d gates out) + pipeline %.3f s (untraced %.3f s, %d circuits x 2 workflows) + store replay %.3f s + in-process server %.3f s (%d rz requests at %.0f rps)"
    wall e.wall e.plain_wall (List.length engine_inputs) e.gates_out p.compile_wall p.plain_wall
    (List.length members) p.replay_wall p.server_wall p.rz_requests Pb_serve.low_rps;
  let row = layer_row r ~wall in
  row "circuit.qasm_reader (stream: next_event)" e.read_s;
  row "transpile.stream_opt (push/flush)*" e.window_s;
  row "synth.run_chain rz (stream engine)" e.synth.s;
  row "pipeline.stream_compile self" engine_self;
  row "circuit.qasm (stream: write_instr)" e.print_s;
  row "cliffordt.ma_table (get_for, step-0)" p.table_s;
  row "circuit.qasm_reader (pipeline: of_file)" p.read_s;
  row "transpile.settings (best_for)*" p.best_for_s;
  row "synth.run_chain u3 (pipeline)" p.u3.s;
  row "synth.run_chain rz (pipeline)" p.rz.s;
  row "pipeline.run residual (planner, splice)" residual;
  row "circuit.qasm (pipeline: to_string + write)" p.print_s;
  row "store.lookup (replay)" p.lookup_s;
  row "store.put (replay)" p.put_s;
  row "synth.run_chain rz (replay misses)" p.replay_synth_s;
  row "server.submit_line (decode + admit)" p.submit_s;
  row "client pacing (open-loop schedule)" p.pace_s;
  row "client waiting for the last answers" p.drain_wait_s;
  row "unattributed" (wall -. self);
  Pb_result.row r "  * timed in a separate pass over the same inputs and subtracted from the engine's or pipeline's time";
  Pb_result.row r "  server stats (its own 3-per-decade histograms): queue_wait p99 %.3f ms, latency p99 %.3f ms"
    (1e3 *. stat [ "queue_wait"; "p99_s" ]) (1e3 *. stat [ "latency"; "p99_s" ])

(* stream_qaoa: the whole stream through the engine; its first
   [prefix_gates] gates (about nine QAOA rounds) through the pipeline,
   whose TRASYN workflow would take minutes over the whole stream. *)
let prefix_gates = 600

let stream_qaoa ~work ~seed r =
  let input = Filename.concat work "stream_in.qasm" in
  ignore (Pb_stream.write_input ~seed input);
  let prefix =
    {
      Pb_suite.name = Printf.sprintf "qaoa-stream-%d-s%d" prefix_gates seed;
      category = "stream";
      circuit = Pb_stream.prefix ~seed ~gates:prefix_gates;
      simulated = [];
    }
  in
  run r ~work ~seed ~epsilon:Pb_stream.epsilon ~engine_inputs:[ input ]
    ~members:(Pb_suite.write_inputs ~work [ prefix ])

(* suite_synth: every member through both the engine and the pipeline. *)
let suite_synth ~work ~seed r =
  let members = Pb_suite.write_inputs ~work (Pb_suite.members ()) in
  run r ~work ~seed ~epsilon:Pb_suite.epsilon ~engine_inputs:(List.map (fun (_, _, path) -> path) members) ~members
