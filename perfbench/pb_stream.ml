(* stream_qaoa: a 250k-gate QAOA stream through compile_cli --stream
   with GRIDSYNTH at eps 0.1.  The 12-angle palette dedups ~114k
   rotations into 8 syntheses, so parse, the window optimizer, the
   engine's key/memo/splice and QASM printing carry the run; a
   synthesis speedup should not move it.

   250k rather than 10^6 gates: on a shared 2-core host one compile of
   10^6 gates took 11-15 s and single compiles varied by +-15%, so a
   run could hold only two of them.  A quarter of the size gives six or
   more compiles per 20 s run and a median that holds still; heap use
   is flat in the input size, so nothing else changes. *)

let gates = 250_000
let n_qubits = 12
let epsilon = 0.1
let window = 64
let jobs () = Domain.recommended_domain_count ()
let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1e6

let cli ~input ~output =
  [|
    Pb_proc.bin "compile_cli"; "--stream"; "-w"; "gridsynth"; "--epsilon"; string_of_float epsilon;
    "--window"; string_of_int window; "--jobs"; string_of_int (jobs ()); "-i"; input; "-o"; output;
  |]

let write_input ~seed path =
  Out_channel.with_open_bin path (fun oc -> Generators.write_qaoa_stream ~seed ~n:n_qubits ~gates oc)

(* The smallest request: one palette rotation. *)
let write_one_gate ~seed path =
  let k = Random.State.int (Random.State.make [| seed; 1 |]) 12 in
  Out_channel.with_open_bin path (fun oc ->
      Qasm.write_header oc n_qubits;
      Qasm.write_instr oc
        { Circuit.gate = Qgate.Rz (float_of_int ((2 * k) + 1) *. Float.pi /. 8.0); qubits = [| 0 |] })

(* Setup launches before the first compile, and after every compile,
   so the median covers the whole run rather than its start.  One
   launch takes ~13 ms, mostly process start-up, so a single one per
   compile was at the mercy of the host's slow moments. *)
let setup_launches = 5

(* One launch of the smallest request; its wall in seconds. *)
let setup_once ~work =
  fst
    (Pb_proc.run ~out:(Filename.concat work "one.log")
       (cli ~input:(Filename.concat work "one.qasm") ~output:(Filename.concat work "one.out")))

let run ~work ~seed ~seconds r =
  let input = Filename.concat work "stream_in.qasm" in
  let written = write_input ~seed input in
  if written <> gates then Pb_result.error r (Printf.sprintf "generator wrote %d gates, wanted %d" written gates);
  write_one_gate ~seed (Filename.concat work "one.qasm");
  let setups = ref (List.init setup_launches (fun _ -> setup_once ~work)) in
  let output = Filename.concat work "stream_out.qasm" in
  let log = Filename.concat work "stream.log" in
  let t_start = Pb_proc.now () in
  let rates = ref [] and rot_rates = ref [] and heaps = ref [] in
  let first = ref None in
  while !rates = [] || Pb_proc.now () -. t_start < float_of_int seconds do
    let wall, text = Pb_proc.run ~out:log (cli ~input ~output) in
    match Pb_report.stream_report text with
    | Error e ->
        Pb_result.attempt r ~ok:false;
        Pb_result.error r e;
        rates := nan :: !rates
    | Ok rep ->
        let digest = Digest.file output in
        let ok =
          match !first with
          | None ->
              (* Check the first output in full; later ones must match it byte for byte. *)
              let reported = { Pb_check.gates = rep.gates_out; t = rep.t; cliffords = rep.cliffords } in
              let c =
                Result.bind (Pb_check.recount output) (Pb_check.expect_counts ~what:"stream output" reported)
              in
              Pb_result.check r c;
              first := Some (digest, rep);
              Result.is_ok c && rep.gates_in = gates
          | Some (d, rep0) ->
              let same = d = digest && rep = { rep0 with gates_per_sec = rep.gates_per_sec; peak_heap_words = rep.peak_heap_words } in
              if not same then Pb_result.error r "stream output differs between repetitions";
              same
        in
        Pb_result.attempt r ~ok;
        rates := (float_of_int rep.gates_in /. wall) :: !rates;
        rot_rates := (float_of_int rep.rotations /. wall) :: !rot_rates;
        heaps := mb_of_words rep.peak_heap_words :: !heaps;
        Pb_result.row r "rep %d: %.2f s wall, %.0f gates/s (child says %.0f), peak heap %d words"
          (List.length !rates) wall (float_of_int rep.gates_in /. wall) rep.gates_per_sec rep.peak_heap_words;
        setups := List.init setup_launches (fun _ -> setup_once ~work) @ !setups
  done;
  let setups = Array.of_list !setups in
  Pb_result.metric r "setup_s" "s" ~samples:(Array.length setups) (Pb_stats.median setups);
  Pb_result.row r "setup: 1-gate stream compile, median of %d launches: %.4f s" (Array.length setups)
    (Pb_stats.median setups);
  let reps = List.length !rates in
  Pb_result.metric r "gates_per_s" "1/s" ~samples:reps (Pb_stats.median (Array.of_list !rates));
  Pb_result.metric r "peak_heap_mb" "MB" ~samples:reps (Pb_stats.median (Array.of_list !heaps));
  (* The stream compile is this workload's GRIDSYNTH (Rz IR) workflow,
     so its rotation rate and T count are also the Rz-workflow metrics. *)
  Pb_result.metric r "rz_rotations_per_s" "1/s" ~samples:reps (Pb_stats.median (Array.of_list !rot_rates));
  match !first with
  | Some (_, rep) ->
      Pb_result.metric r "t_count" "count" ~samples:1 (float_of_int rep.t);
      Pb_result.metric r "clifford_count" "count" ~samples:1 (float_of_int rep.cliffords);
      Pb_result.metric r "t_count_rz" "count" ~samples:1 (float_of_int rep.t);
      Pb_result.row r "output: %d gates in -> %d out, T=%d, Cliffords=%d, %d rotations (%d unique, %d dedup hits, %d degraded)"
        rep.gates_in rep.gates_out rep.t rep.cliffords rep.rotations rep.unique rep.dedup_hits rep.degraded
  | None -> ()

(* ---- traced run: the same compile in-process, layer by layer ---- *)

let batch = 4096
let nop = { Circuit.gate = Qgate.H; qubits = [| 0 |] }

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type pass = {
  result : (Stream_compile.stats, Robust.failure) result;
  wall : float;  (** files opened to files closed *)
  run_s : float;  (** inside Stream_compile.run *)
  read_s : float;
  print_s : float;
  events : int;
  bytes : int;
}

(* One in-process compile of [input] into [output] on one domain.
   [synth] (traced runs) times synthesis inside the engine's chain and
   wraps the reader and the printer in batch timers (one clock pair
   per 4096 gates, not per gate). *)
let compile ?synth ~epsilon ~input ~output () =
  Stream_compile.clear_cache ();
  let chain = Option.map (fun t -> Pb_synth.wrap t (Synth.rz_chain ())) synth in
  let cfg = Stream_compile.config ~epsilon ~ir:Settings.Rz_ir ~window ~jobs:1 ?chain () in
  let read_s = ref 0.0 and print_s = ref 0.0 and events = ref 0 in
  let t0 = Pb_proc.now () in
  let st, run_s, bytes =
    In_channel.with_open_bin input @@ fun ic ->
    Out_channel.with_open_bin output @@ fun oc ->
    let reader = Qasm_reader.stream_of_channel ~file:input ic in
    let result =
      if synth = None then
        let r0 = Pb_proc.now () in
        let st = Stream_compile.run_qasm cfg reader ~on_qreg:(Qasm.write_header oc) ~emit:(Qasm.write_instr oc) in
        (st, Pb_proc.now () -. r0)
      else begin
        let inbuf = Array.make batch nop and inlen = ref 0 and inpos = ref 0 and eof = ref false in
        let refill () =
          Pb_result.timed read_s (fun () ->
              inlen := 0;
              inpos := 0;
              while (not !eof) && !inlen < batch do
                match Qasm_reader.next_event reader with
                | None -> eof := true
                | Some (Qasm_reader.Qreg n) -> Qasm.write_header oc n
                | Some (Qasm_reader.Instr i) ->
                    inbuf.(!inlen) <- i;
                    incr inlen
              done);
          events := !events + !inlen
        in
        let rec next () =
          if !inpos < !inlen then begin
            let i = inbuf.(!inpos) in
            incr inpos;
            Some i
          end
          else if !eof then None
          else (refill (); next ())
        in
        let outbuf = Array.make batch nop and outlen = ref 0 in
        let flush_out () =
          Pb_result.timed print_s (fun () ->
              for k = 0 to !outlen - 1 do
                Qasm.write_instr oc outbuf.(k)
              done);
          outlen := 0
        in
        let emit i =
          outbuf.(!outlen) <- i;
          incr outlen;
          if !outlen = batch then flush_out ()
        in
        let r0 = Pb_proc.now () in
        let st = Stream_compile.run cfg ~next ~emit in
        flush_out ();
        (st, Pb_proc.now () -. r0)
      end
    in
    let st, run_s = result in
    (st, run_s, pos_out oc)
  in
  { result = st; wall = Pb_proc.now () -. t0; run_s; read_s = !read_s; print_s = !print_s; events = !events; bytes }

(* The window optimizer alone over the same input, timed per batch of
   pushes; returns its time and its output size. *)
let window_pass ~input =
  let opt = Stream_opt.create ~window Settings.Rz_ir in
  let inbuf = Array.make batch nop in
  let window_s = ref 0.0 in
  let emit _ = () in
  In_channel.with_open_bin input (fun ic ->
      let reader = Qasm_reader.stream_of_channel ~file:input ic in
      let eof = ref false in
      while not !eof do
        let n = ref 0 in
        while (not !eof) && !n < batch do
          match Qasm_reader.next_event reader with
          | None -> eof := true
          | Some (Qasm_reader.Qreg _) -> ()
          | Some (Qasm_reader.Instr i) ->
              inbuf.(!n) <- i;
              incr n
        done;
        Pb_result.timed window_s (fun () ->
            for k = 0 to !n - 1 do
              Stream_opt.push opt inbuf.(k) ~emit
            done)
      done);
  Pb_result.timed window_s (fun () -> Stream_opt.flush opt ~emit);
  (!window_s, Stream_opt.gates_out opt)

(* The engine's layers over [inputs] at [epsilon], one file after the
   other on one domain: each is compiled untraced, traced, and
   untraced again (so warm-up favours neither side), and the window
   optimizer is timed on its own.  Sums over the inputs. *)
type engine = {
  mutable wall : float;  (** traced compiles, files opened to closed *)
  mutable plain_wall : float;  (** the same compiles untraced, mean of the two *)
  mutable run_s : float;
  mutable read_s : float;
  mutable print_s : float;
  mutable window_s : float;
  synth : Pb_synth.t;
  mutable events : int;
  mutable bytes : int;
  mutable gates_out : int;
  mutable window_out : int;
  mutable unique : int;
  mutable dedup_hits : int;
  mutable alloc_words : float;  (** untraced compiles *)
}

let engine_layers r ~work ~epsilon inputs =
  let e =
    {
      wall = 0.0; plain_wall = 0.0; run_s = 0.0; read_s = 0.0; print_s = 0.0; window_s = 0.0;
      synth = Pb_synth.create (); events = 0; bytes = 0; gates_out = 0; window_out = 0; unique = 0;
      dedup_hits = 0; alloc_words = 0.0;
    }
  in
  let plain_out = Filename.concat work "engine_plain.qasm" and traced_out = Filename.concat work "engine_traced.qasm" in
  List.iter
    (fun input ->
      let a0 = alloc_words () in
      let plain = compile ~epsilon ~input ~output:plain_out () in
      e.alloc_words <- e.alloc_words +. (alloc_words () -. a0);
      let t = compile ~synth:e.synth ~epsilon ~input ~output:traced_out () in
      let plain_wall = (plain.wall +. (compile ~epsilon ~input ~output:plain_out ()).wall) /. 2.0 in
      let window_s, window_out = window_pass ~input in
      e.wall <- e.wall +. t.wall;
      e.plain_wall <- e.plain_wall +. plain_wall;
      e.run_s <- e.run_s +. t.run_s;
      e.read_s <- e.read_s +. t.read_s;
      e.print_s <- e.print_s +. t.print_s;
      e.window_s <- e.window_s +. window_s;
      e.events <- e.events + t.events;
      e.bytes <- e.bytes + t.bytes;
      e.window_out <- e.window_out + window_out;
      match (plain.result, t.result) with
      | Ok _, Ok s ->
          let same = Digest.file plain_out = Digest.file traced_out in
          if not same then Pb_result.error r (input ^ ": traced in-process stream output differs from the untraced one");
          let c =
            Result.bind (Pb_check.recount traced_out)
              (Pb_check.expect_counts ~what:(input ^ " in-process stream output")
                 { Pb_check.gates = s.Stream_compile.gates_out; t = s.t_count; cliffords = s.clifford_count })
          in
          Pb_result.check r c;
          Pb_result.attempt r ~ok:(same && Result.is_ok c);
          e.gates_out <- e.gates_out + s.gates_out;
          e.unique <- e.unique + s.unique_syntheses;
          e.dedup_hits <- e.dedup_hits + s.dedup_hits
      | Error f, _ | _, Error f ->
          Pb_result.attempt r ~ok:false;
          Pb_result.error r (input ^ ": in-process stream compile failed: " ^ Robust.failure_to_string f))
    inputs;
  e

(* The first [gates] gates of the workload's stream, as a circuit for
   the traced run's pass through the non-streaming pipeline. *)
let prefix ~seed ~gates =
  let next = Generators.qaoa_stream ~seed ~n:n_qubits ~gates in
  let rec go acc = match next () with None -> List.rev acc | Some i -> go (i :: acc) in
  Circuit.make n_qubits (go [])
