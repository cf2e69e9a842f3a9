(* Tests for the streaming layer: incremental QASM parsing (chunk
   boundaries, CRLF, trailing garbage, error positions), the windowed
   optimizer, and the streaming engine's byte-identity with the
   in-memory path across window sizes and job counts. *)

let rng = Random.State.make [| 5150 |]

let random_circuit n gates =
  let instrs = ref [] in
  for _ = 1 to gates do
    let q = Random.State.int rng n in
    let q2 = (q + 1 + Random.State.int rng (n - 1)) mod n in
    let angle = Random.State.float rng 6.0 -. 3.0 in
    let i =
      match Random.State.int rng 10 with
      | 0 -> Circuit.instr Qgate.H [| q |]
      | 1 -> Circuit.instr (Qgate.Rz angle) [| q |]
      | 2 -> Circuit.instr (Qgate.Rx angle) [| q |]
      | 3 -> Circuit.instr (Qgate.U3 (angle, -.angle, angle /. 3.0)) [| q |]
      | 4 -> Circuit.instr Qgate.T [| q |]
      | 5 -> Circuit.instr Qgate.X [| q |]
      | 6 -> Circuit.instr Qgate.CX [| q; q2 |]
      | 7 -> Circuit.instr Qgate.CZ [| q; q2 |]
      | 8 -> Circuit.instr Qgate.Swap [| q; q2 |]
      | _ -> Circuit.instr (Qgate.Ry angle) [| q |]
    in
    instrs := i :: !instrs
  done;
  Circuit.make n (List.rev !instrs)

let circuits_equal a b = Unitary.distance a b < 1e-7

let check_error name text eline ecol emsg_prefix =
  Alcotest.test_case name `Quick (fun () ->
      match Qasm_reader.of_string text with
      | _ -> Alcotest.failf "%s: expected Parse_error" name
      | exception Qasm_reader.Parse_error (_, l, c, m) ->
          Alcotest.(check int) (name ^ " line") eline l;
          Alcotest.(check int) (name ^ " col") ecol c;
          Alcotest.(check bool)
            (Printf.sprintf "%s message %S starts with %S" name m emsg_prefix)
            true
            (String.length m >= String.length emsg_prefix
            && String.sub m 0 (String.length emsg_prefix) = emsg_prefix))

let reader_tests =
  [
    Alcotest.test_case "parse is chunk-size invariant" `Quick (fun () ->
        (* Comments, blank lines, expressions, multi-operand gates —
           every byte offset becomes a refill boundary at chunk=1. *)
        let text =
          "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n// a comment that spans // weird // marks\n\
           qreg q[3];\n\nh q[0]; // trailing comment\nrz(3*pi/8) q[1];\ncx q[0],q[2];\n\
           u3(0.1,-0.2,0.3) q[2]; \nccx q[0],q[1],q[2];\nbarrier q;\nswap q[1],q[2];\n"
        in
        let want = Qasm.to_string (Qasm_reader.of_string text) in
        List.iter
          (fun chunk ->
            let got =
              Qasm.to_string (Qasm_reader.of_stream (Qasm_reader.stream_of_string ~chunk text))
            in
            Alcotest.(check string) (Printf.sprintf "chunk=%d" chunk) want got)
          [ 1; 2; 3; 5; 7; 16; 64; 65536 ]);
    Alcotest.test_case "CRLF input parses identically" `Quick (fun () ->
        let lf = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nrz(pi/4) q[1];\ncx q[0],q[1];\n" in
        let crlf = String.concat "\r\n" (String.split_on_char '\n' lf) in
        Alcotest.(check string) "same circuit"
          (Qasm.to_string (Qasm_reader.of_string lf))
          (Qasm.to_string (Qasm_reader.of_string ~file:"crlf" crlf)));
    Alcotest.test_case "empty and comment-only inputs are empty circuits" `Quick (fun () ->
        List.iter
          (fun text ->
            let c = Qasm_reader.of_string text in
            Alcotest.(check int) "qubits" 0 c.Circuit.n_qubits;
            Alcotest.(check int) "gates" 0 (Circuit.length c))
          [ ""; "\n"; "// only a comment\n"; "\n\n// c\n\n" ]);
    Alcotest.test_case "final line without newline still parses" `Quick (fun () ->
        let c = Qasm_reader.of_string "qreg q[1];\nh q[0];" in
        Alcotest.(check int) "gates" 1 (Circuit.length c));
    Alcotest.test_case "incremental events arrive per statement" `Quick (fun () ->
        let sr = Qasm_reader.stream_of_string ~chunk:4 "qreg q[2];\nh q[0];\ncx q[0],q[1];\n" in
        (match Qasm_reader.next_event sr with
        | Some (Qasm_reader.Qreg 2) -> ()
        | _ -> Alcotest.fail "expected Qreg 2");
        Alcotest.(check int) "n_qubits" 2 (Qasm_reader.stream_n_qubits sr);
        (match Qasm_reader.next_event sr with
        | Some (Qasm_reader.Instr { Circuit.gate = Qgate.H; _ }) -> ()
        | _ -> Alcotest.fail "expected h");
        (match Qasm_reader.next_event sr with
        | Some (Qasm_reader.Instr { Circuit.gate = Qgate.CX; _ }) -> ()
        | _ -> Alcotest.fail "expected cx");
        Alcotest.(check bool) "eof" true (Qasm_reader.next_event sr = None);
        Alcotest.(check bool) "eof again" true (Qasm_reader.next_event sr = None));
    check_error "trailing garbage after final statement errors"
      "OPENQASM 2.0;\nqreg q[1];\nh q[0];\n@@@ junk" 4 5 "expected q[i]";
    check_error "truncated expression points at the token"
      "qreg q[2];\nrz(pi/) q[0];\n" 2 7 "malformed expression";
    check_error "unbalanced paren points at the paren"
      "qreg q[2];\nrz(0.5 q[0];\n" 2 3 "unbalanced (";
    check_error "out-of-range qubit points at the operand"
      "qreg q[2];\nrz(0.5) q[5];\n" 2 9 "qubit 5 out of range";
    check_error "gate before qreg" "h q[0];\n" 1 1 "gate before qreg";
    check_error "unsupported gate" "qreg q[1];\nfoo q[0];\n" 2 1 "unsupported gate foo/0";
  ]

let window_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:30 ~name:"windowed optimizer preserves semantics (Rz IR)"
         QCheck2.Gen.unit (fun () ->
           let c = random_circuit 3 25 in
           circuits_equal c (Stream_opt.run ~window:4 Settings.Rz_ir c)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:30 ~name:"windowed optimizer preserves semantics (U3 IR)"
         QCheck2.Gen.unit (fun () ->
           let c = random_circuit 3 25 in
           circuits_equal c (Stream_opt.run ~window:8 Settings.U3_ir c)));
    Alcotest.test_case "adjacent Rz merge, self-inverse pairs cancel" `Quick (fun () ->
        let c =
          Circuit.of_list 2
            [
              (Qgate.Rz 0.3, [ 0 ]); (Qgate.Rz 0.4, [ 0 ]); (Qgate.H, [ 1 ]); (Qgate.H, [ 1 ]);
              (Qgate.CX, [ 0; 1 ]); (Qgate.CX, [ 0; 1 ]);
            ]
        in
        let out = Stream_opt.run ~window:8 Settings.Rz_ir c in
        match out.Circuit.instrs with
        | [ { Circuit.gate = Qgate.Rz a; _ } ] ->
            Alcotest.(check (float 1e-12)) "merged angle" 0.7 a
        | _ -> Alcotest.failf "expected a single rz, got %d gates" (Circuit.length out));
    Alcotest.test_case "Rz phase-folds through a CX control" `Quick (fun () ->
        let c =
          Circuit.of_list 2
            [ (Qgate.Rz 0.3, [ 0 ]); (Qgate.CX, [ 0; 1 ]); (Qgate.Rz 0.4, [ 0 ]) ]
        in
        let out = Stream_opt.run ~window:8 Settings.Rz_ir c in
        Alcotest.(check int) "two gates" 2 (Circuit.length out);
        Alcotest.(check bool) "equivalent" true (circuits_equal c out));
    Alcotest.test_case "window bound holds: W=1 is pass-through lowering" `Quick (fun () ->
        let c = random_circuit 3 30 in
        let out = Stream_opt.run ~window:1 Settings.Rz_ir c in
        Alcotest.(check bool) "equivalent" true (circuits_equal c out));
  ]

(* The engine is deterministic per key and emits in input order, so the
   streamed path must match the in-memory reference byte for byte at
   every window / jobs / queue combination — cache-cold each time. *)
let engine_tests =
  let qasm_of n instrs = Qasm.to_string (Circuit.make n instrs) in
  let stream_via_qasm cfg text =
    let sr = Qasm_reader.stream_of_string ~chunk:13 text in
    let out = ref [] in
    let nq = ref 0 in
    match
      Stream_compile.run_qasm cfg sr
        ~on_qreg:(fun n -> nq := n)
        ~emit:(fun i -> out := i :: !out)
    with
    | Error f -> Alcotest.failf "stream failed: %s" (Robust.failure_to_string f)
    | Ok st -> (qasm_of !nq (List.rev !out), st)
  in
  [
    Alcotest.test_case "streamed output is byte-identical to the in-memory path" `Slow (fun () ->
        let c = random_circuit 3 40 in
        let text = Qasm.to_string c in
        List.iter
          (fun (window, jobs, queue, ir) ->
            let label = Printf.sprintf "window=%d jobs=%d queue=%d" window jobs queue in
            Stream_compile.clear_cache ();
            let cfg =
              Stream_compile.config ~epsilon:0.15 ~ir ~window ~queue ~depth:8 ~jobs ()
            in
            let want, wstats =
              match Stream_compile.run_circuit cfg c with
              | Ok (rc, st) -> (Qasm.to_string rc, st)
              | Error f -> Alcotest.failf "reference failed: %s" (Robust.failure_to_string f)
            in
            Stream_compile.clear_cache ();
            let got, gstats = stream_via_qasm cfg text in
            Alcotest.(check string) label want got;
            Alcotest.(check int) (label ^ " gates_out") wstats.Stream_compile.gates_out
              gstats.Stream_compile.gates_out;
            Alcotest.(check int) (label ^ " t_count") wstats.Stream_compile.t_count
              gstats.Stream_compile.t_count)
          [
            (1, 1, 2, Settings.Rz_ir);
            (4, 2, 2, Settings.Rz_ir);
            (64, 4, 32, Settings.Rz_ir);
            (8, 2, 4, Settings.U3_ir);
          ]);
    Alcotest.test_case "dedup: repeated angles synthesize once" `Quick (fun () ->
        Stream_compile.clear_cache ();
        (* H between the rotations keeps the window from folding them,
           so all 20 occurrences reach the engine with the same key. *)
        let instrs =
          List.concat
            (List.init 20 (fun _ ->
                 [ Circuit.instr (Qgate.Rz 0.31) [| 0 |]; Circuit.instr Qgate.H [| 0 |] ]))
        in
        let cfg = Stream_compile.config ~epsilon:0.1 ~window:1 () in
        match Stream_compile.run_circuit cfg (Circuit.make 1 instrs) with
        | Error f -> Alcotest.failf "failed: %s" (Robust.failure_to_string f)
        | Ok (_, st) ->
            Alcotest.(check int) "occurrences" 20 st.Stream_compile.rotations_synthesized;
            Alcotest.(check int) "unique" 1 st.Stream_compile.unique_syntheses;
            Alcotest.(check int) "dedup hits" 19 st.Stream_compile.dedup_hits);
    Alcotest.test_case "queue-depth gauge and peak-heap metrics are live" `Quick (fun () ->
        let cfg = Stream_compile.config ~epsilon:0.1 ~jobs:2 ~queue:2 () in
        let c = random_circuit 2 30 in
        match Stream_compile.run_circuit cfg c with
        | Error f -> Alcotest.failf "failed: %s" (Robust.failure_to_string f)
        | Ok (_, st) ->
            Alcotest.(check bool) "peak heap sampled" true (st.Stream_compile.peak_heap_words > 0);
            Alcotest.(check bool) "heap gauge registered" true
              (Obs.gauge_value (Obs.gauge "obs.heap.peak_words") > 0.0);
            (* The backpressure gauge must exist (exporters pick it up);
               its instantaneous value is timing-dependent. *)
            Alcotest.(check bool) "queue gauge registered" true
              (Obs.gauge_value (Obs.gauge "obs.planner.queue_depth") >= 0.0));
    Alcotest.test_case "synthesis failure aborts cleanly with jobs > 1" `Quick (fun () ->
        let specs =
          match Robust.Fault.parse "*=fail" with
          | Ok (_, s) -> s
          | Error e -> Alcotest.fail e
        in
        Robust.Fault.with_faults specs (fun () ->
            Stream_compile.clear_cache ();
            let cfg = Stream_compile.config ~epsilon:0.05 ~jobs:3 ~queue:2 ~window:4 () in
            let c =
              Circuit.make 1 (List.init 8 (fun i -> Circuit.instr (Qgate.Rz (0.1 +. float_of_int i)) [| 0 |]))
            in
            match Stream_compile.run_circuit cfg c with
            | Ok _ -> Alcotest.fail "expected a failure under *=fail"
            | Error _ -> ());
        Stream_compile.clear_cache ());
  ]

(* The stream engine and the in-memory workflows are one engine: the
   same ledger books, and at window 1 the same bytes. *)
let one_engine_tests =
  let with_ledger f =
    Ledger.reset ();
    Ledger.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Ledger.set_enabled false;
        Ledger.reset ())
      f
  in
  let sources () = List.map (fun (r : Ledger.record) -> r.Ledger.source) (Ledger.records ()) in
  let count x = List.length (List.filter (( = ) x) (sources ())) in
  let ok = function Ok v -> v | Error f -> Alcotest.fail (Robust.failure_to_string f) in
  [
    Alcotest.test_case "ledger: one record per occurrence, fresh then replays" `Quick (fun () ->
        let c = Circuit.make 10 (List.init 10 (fun q -> Circuit.instr (Qgate.Rz 0.61) [| q |])) in
        with_ledger (fun () ->
            Stream_compile.clear_cache ();
            let hits = Obs.counter "pipeline.memo.hit" and misses = Obs.counter "pipeline.memo.miss" in
            let h0 = Obs.counter_value hits and m0 = Obs.counter_value misses in
            let cfg = Stream_compile.config ~epsilon:0.1 ~window:1 () in
            let _, st = ok (Stream_compile.run_circuit cfg c) in
            Alcotest.(check int) "memo hits" 9 (Obs.counter_value hits - h0);
            Alcotest.(check int) "memo misses" 1 (Obs.counter_value misses - m0);
            Alcotest.(check int) "unique syntheses" 1 st.Stream_compile.unique_syntheses;
            Alcotest.(check int) "dedup hits" 9 st.Stream_compile.dedup_hits;
            Alcotest.(check int) "occurrences" 10 st.Stream_compile.rotations_synthesized;
            Alcotest.(check int) "records" st.Stream_compile.rotations_synthesized (Ledger.size ());
            Alcotest.(check int) "fresh" 1 (count "fresh");
            Alcotest.(check int) "replay" 9 (count "replay"));
        with_ledger (fun () ->
            Stream_compile.clear_cache ();
            let s = Pipeline.run_gridsynth ~epsilon:0.1 c in
            Alcotest.(check int) "pipeline records" s.Pipeline.rotations_synthesized
              (Ledger.size ()));
        Stream_compile.clear_cache ());
    Alcotest.test_case "window 1 output equals the in-memory workflow's" `Quick (fun () ->
        let c =
          Circuit.of_list 2 [ (Qgate.Rz 0.61, [ 0 ]); (Qgate.CX, [ 0; 1 ]); (Qgate.Rz 1.1, [ 1 ]) ]
        in
        let stream ir =
          Stream_compile.clear_cache ();
          let cfg = Stream_compile.config ~epsilon:0.2 ~ir ~window:1 () in
          Qasm.to_string (fst (ok (Stream_compile.run_circuit cfg c)))
        in
        let pipeline run =
          Stream_compile.clear_cache ();
          Qasm.to_string (ok run).Pipeline.circuit
        in
        Alcotest.(check string) "U3 IR vs TRASYN workflow"
          (pipeline (Pipeline.run_trasyn_result ~epsilon:0.2 ~transpile:false c))
          (stream Settings.U3_ir);
        Alcotest.(check string) "Rz IR vs GRIDSYNTH workflow"
          (pipeline (Pipeline.run_gridsynth_result ~epsilon:0.2 ~transpile:false c))
          (stream Settings.Rz_ir);
        Stream_compile.clear_cache ());
  ]

let suite = reader_tests @ window_tests @ engine_tests @ one_engine_tests
