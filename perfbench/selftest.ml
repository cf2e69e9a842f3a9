(* Self-tests for the benchmark's own code: report-line parsing, the
   quantile rule, the open-loop scheduler's lateness accounting, and
   the output checks.  Run by `dune runtest`. *)

let failures = ref 0
let passed = ref 0

let check name cond =
  if cond then incr passed
  else begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let close ?(tol = 1e-9) a b = Float.abs (a -. b) <= tol

let stream_text =
  {|input    : 12 qubits (streaming, window 64, queue 32, 2 jobs)
output   : 1000000 gates in -> 10759904 gates out, T=3636296, Cliffords=6743585
synth    : 454537 rotations (8 unique, 454529 dedup hits), err 25523.3382, 0 degraded
gates/sec: 80235.7
backpressure: 0 producer waits
peak heap: 309022 words
wrote    : out1.qasm
|}

let compile_text =
  {|input    : 8 qubits, 80 gates, 56 nontrivial rotations
setting  : u3-O2+c
output   : 619 gates, T=227, Tdepth=40, Cliffords=375
synth err: 1.2646 summed over 32 rotations
degraded : 2 rotations needed a fallback or overshot (sk=2)
  u3(...) -> sk after 3 fallbacks, achieved 0.1 (requested 0.07)
|}

let test_reports () =
  (match Pb_report.stream_report stream_text with
  | Ok r ->
      check "stream gates" (r.gates_in = 1_000_000 && r.gates_out = 10_759_904);
      check "stream counts" (r.t = 3_636_296 && r.cliffords = 6_743_585);
      check "stream synth" (r.rotations = 454_537 && r.unique = 8 && r.dedup_hits = 454_529 && r.degraded = 0);
      check "gates/sec line" (close r.gates_per_sec 80235.7);
      check "peak heap line" (r.peak_heap_words = 309_022)
  | Error e -> check ("stream report parses: " ^ e) false);
  (match Pb_report.compile_report compile_text with
  | Ok r ->
      check "output line" (r.c_gates = 619 && r.c_t = 227 && r.c_cliffords = 375);
      check "synth err line" (close r.synth_err 1.2646 && r.c_rotations = 32);
      check "degraded line" (r.c_degraded = 2)
  | Error e -> check ("compile report parses: " ^ e) false);
  check "top_heap_words line"
    (Pb_report.top_heap_words "minor_collections: 36\nheap_words: 13020559\ntop_heap_words: 13020560\n"
    = Ok 13_020_560);
  check "missing top_heap_words is an error" (Result.is_error (Pb_report.top_heap_words "heap_words: 5\n"));
  check "stream output line is not a compile output line"
    (Result.is_error (Pb_report.compile_report stream_text));
  check "missing peak heap is an error"
    (Result.is_error
       (Pb_report.stream_report
          (String.concat "\n"
             (List.filter
                (fun l -> not (String.starts_with ~prefix:"peak" l))
                (String.split_on_char '\n' stream_text)))))

let test_quantiles () =
  let a n = Array.init n (fun i -> float_of_int (n - i)) in
  check "p99 of 1..1000 is 990" (Pb_stats.quantile 0.99 (a 1000) = Some 990.0);
  check "p99 needs ten samples beyond it" (Pb_stats.quantile 0.99 (a 999) = None);
  check "p50 of 1..20 is 10" (Pb_stats.quantile 0.5 (a 20) = Some 10.0);
  check "p50 of 1..19 lacks ten beyond" (Pb_stats.quantile 0.5 (a 19) = None);
  check "empty has no quantile" (Pb_stats.quantile 0.5 [||] = None);
  check "median odd" (Pb_stats.median [| 3.0; 1.0; 2.0 |] = 2.0);
  check "median even" (Pb_stats.median [| 4.0; 1.0; 3.0; 2.0 |] = 2.5);
  check "failures sort last" (Pb_stats.quantile 0.5 (Array.append (a 20) [| infinity |]) = Some 11.0)

let test_lateness () =
  let dues = Array.init 20 (fun i -> float_of_int i *. 0.001) in
  (* The generator stalls from 10 ms to 30 ms, then catches up. *)
  let sents = Array.map (fun d -> if d >= 0.010 && d < 0.030 then 0.030 else d) dues in
  let l = Pb_openloop.lateness ~dues ~sents in
  check "lateness counts sends" (l.sends = 20);
  check "max lateness is the stall" (close ~tol:1e-9 l.max_ms 20.0);
  check "no p99 from 20 sends" (l.p99_ms = None);
  check "due times are on schedule" (close (Pb_openloop.due ~t0:5.0 ~rate:200.0 3) 5.015)

(* The scheduler against an in-process echo server: a 30 ms stall in
   the generator must show as lateness and as latency on the requests
   due during it, measured from their due times. *)
let test_open_loop () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let echo =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr b and oc = Unix.out_channel_of_descr b in
        try
          while true do
            let line = input_line ic in
            let id = Scanf.sscanf line {|{"id":%d|} Fun.id in
            Printf.fprintf oc "{\"id\":%d,\"ok\":%b}\n%!" id (id mod 50 <> 7)
          done
        with End_of_file | Sys_error _ -> ())
      ()
  in
  let conn = { Pb_openloop.fd = a; buf = Buffer.create 64; chunk = Bytes.create 4096 } in
  let request id =
    if id = 10 then Unix.sleepf 0.030;
    Printf.sprintf {|{"id":%d}|} id
  in
  let judge _ j = if Obs.Json.member "ok" j = Some (Obs.Json.Bool true) then Pb_openloop.Served else Pb_openloop.Failed in
  let ph =
    Pb_openloop.run conn ~clock:Pb_proc.now ~rate:1000.0 ~duration:0.1 ~first_id:0 ~request ~judge
      ~drain_s:2.0
  in
  Unix.shutdown a Unix.SHUTDOWN_ALL;
  Thread.join echo;
  Unix.close a;
  Unix.close b;
  check "all requests answered" (ph.served + ph.failed = 100 && ph.shed = 0);
  check "error responses are failures" (ph.failed = 2);
  check "failed requests miss every limit" (ph.lat_ms.(7) = infinity && ph.lat_ms.(57) = infinity);
  check "generator lateness shows the stall" (ph.late.max_ms >= 29.0);
  check "latency counts from the due time" (ph.lat_ms.(11) >= 28.0);
  check "requests before the stall are fast" (ph.lat_ms.(5) < 28.0)

let test_checks () =
  (* The empty word for rz(0.1): D = sin(0.05). *)
  let d = sin 0.05 in
  check "empty word within its distance"
    (Pb_check.check_rz_word ~theta:0.1 ~epsilon:0.07 ~word:"" ~distance:d ~t_count:0 = Ok ());
  check "T is rz(pi/4)"
    (Pb_check.check_rz_word ~theta:(Float.pi /. 4.0) ~epsilon:0.07 ~word:"T" ~distance:0.0 ~t_count:1 = Ok ());
  check "a wrong word is caught"
    (Result.is_error (Pb_check.check_rz_word ~theta:0.1 ~epsilon:0.07 ~word:"H" ~distance:d ~t_count:0));
  check "an understated distance is caught"
    (Result.is_error (Pb_check.check_rz_word ~theta:0.1 ~epsilon:0.07 ~word:"" ~distance:0.01 ~t_count:0));
  check "a distance above eps is caught"
    (Result.is_error (Pb_check.check_rz_word ~theta:0.2 ~epsilon:0.07 ~word:"" ~distance:0.0998 ~t_count:0));
  check "a wrong t_count is caught"
    (Result.is_error (Pb_check.check_rz_word ~theta:(Float.pi /. 4.0) ~epsilon:0.07 ~word:"T" ~distance:0.0 ~t_count:0));
  let i g q = { Circuit.gate = g; qubits = q } in
  let input = Circuit.make 2 [ i (Qgate.Rz (Float.pi /. 4.0)) [| 0 |]; i Qgate.CX [| 0; 1 |] ] in
  let same = Circuit.make 2 [ i Qgate.T [| 0 |]; i Qgate.CX [| 0; 1 |] ] in
  let wrong = Circuit.make 2 [ i Qgate.Tdg [| 0 |]; i Qgate.CX [| 0; 1 |] ] in
  check "exact compile passes" (Pb_check.check_circuit ~seed:1 ~name:"t" ~input ~output:same ~synth_err:0.0 = Ok true);
  check "wrong compile fails"
    (Result.is_error (Pb_check.check_circuit ~seed:1 ~name:"t" ~input ~output:wrong ~synth_err:0.0));
  check "vacuous bound is skipped"
    (Pb_check.check_circuit ~seed:1 ~name:"t" ~input ~output:wrong ~synth_err:2.5 = Ok false);
  (* State distances never exceed sqrt 2, so a bound in [sqrt 2, 2) is vacuous too. *)
  check "bound in [sqrt 2, 2) is skipped"
    (Pb_check.check_circuit ~seed:1 ~name:"t" ~input ~output:wrong ~synth_err:1.5 = Ok false);
  check "bound just below sqrt 2 is simulated"
    (Pb_check.check_circuit ~seed:1 ~name:"t" ~input ~output:wrong ~synth_err:1.4 <> Ok false)

let () =
  test_reports ();
  test_quantiles ();
  test_lateness ();
  test_open_loop ();
  test_checks ();
  Printf.printf "perfbench selftest: %d passed, %d failed\n" !passed !failures;
  exit (if !failures = 0 then 0 else 1)
