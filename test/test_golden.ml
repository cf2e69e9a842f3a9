(* Golden output digests: MD5 of the QASM each compile path emits on a
   few small seeded circuits.  Any change to the engine, the memo, the
   pool or the splice that alters a single output byte fails here; a
   deliberate output change updates the digest and says why.  Every
   case runs cache-cold, at one and at two domains. *)

let small_trasyn = { Trasyn.default_config with samples = 64; table_t = 6; beam = 4 }

let digest_of c = Digest.to_hex (Digest.string (Qasm.to_string c))

(* The first [gates] instructions of the seeded Rz-IR QAOA stream. *)
let qaoa_prefix ~gates =
  let next = Generators.qaoa_stream ~seed:11 ~n:6 ~gates in
  let rec take acc = match next () with None -> List.rev acc | Some i -> take (i :: acc) in
  Circuit.make 6 (take [])

let cases =
  [
    ( "gridsynth qft3",
      "fd5175329da461c16c0fd352da91047e",
      fun jobs ->
        (Pipeline.run_gridsynth ~epsilon:0.07 ~jobs (Generators.qft 3)).Pipeline.circuit );
    ( "gridsynth qaoa4",
      "c9afb8829aa7681f3dc0333f4f7428da",
      fun jobs ->
        (Pipeline.run_gridsynth ~epsilon:0.07 ~jobs (Generators.qaoa ~seed:1 ~n:4 ~depth:1))
          .Pipeline.circuit );
    ( "gridsynth vqe4",
      "8bc43d2106b1fc4773afc12a0374d994",
      fun jobs ->
        (Pipeline.run_gridsynth ~epsilon:0.07 ~jobs (Generators.vqe_hea ~seed:2 ~n:4 ~layers:1))
          .Pipeline.circuit );
    ( "trasyn qft3",
      "2025b3fe3d65af01adf163c555344aa5",
      fun jobs ->
        (Pipeline.run_trasyn ~epsilon:0.2 ~config:small_trasyn ~budgets:[ 6 ] ~jobs
           (Generators.qft 3))
          .Pipeline.circuit );
    ( "trasyn qaoa4",
      "191178ae529413b8941e2a650caf4858",
      fun jobs ->
        (Pipeline.run_trasyn ~epsilon:0.2 ~config:small_trasyn ~budgets:[ 6 ] ~jobs
           (Generators.qaoa ~seed:1 ~n:4 ~depth:1))
          .Pipeline.circuit );
    ( "stream qaoa prefix",
      "559e4dee32bb18eaaa579ba01dc0be2f",
      fun jobs ->
        let cfg = Stream_compile.config ~epsilon:0.1 ~ir:Settings.Rz_ir ~window:16 ~jobs () in
        match Stream_compile.run_circuit cfg (qaoa_prefix ~gates:1500) with
        | Ok (c, _) -> c
        | Error f -> Alcotest.fail (Robust.failure_to_string f) );
  ]

(* The streamed text path, as [compile_cli --stream] runs it: the same
   seeded prefix written as QASM, read back incrementally, compiled by
   [run_qasm] and written gate by gate through [Qasm.write_header] and
   [Qasm.write_instr].  Its digest is the in-memory prefix's: the text
   path prints exactly what [Qasm.to_string] prints. *)
let stream_text_digest jobs =
  let input = Filename.temp_file "tgates_golden_in" ".qasm" in
  let output = Filename.temp_file "tgates_golden_out" ".qasm" in
  Fun.protect ~finally:(fun () ->
      Sys.remove input;
      Sys.remove output)
  @@ fun () ->
  Out_channel.with_open_bin input (fun oc ->
      ignore (Generators.write_qaoa_stream ~seed:11 ~n:6 ~gates:1500 oc));
  let cfg = Stream_compile.config ~epsilon:0.1 ~ir:Settings.Rz_ir ~window:16 ~jobs () in
  In_channel.with_open_bin input (fun ic ->
      Out_channel.with_open_bin output (fun oc ->
          let reader = Qasm_reader.stream_of_channel ~file:input ic in
          match
            Stream_compile.run_qasm cfg reader ~on_qreg:(Qasm.write_header oc)
              ~emit:(Qasm.write_instr oc)
          with
          | Ok _ -> ()
          | Error f -> Alcotest.fail (Robust.failure_to_string f)));
  Digest.to_hex (Digest.file output)

(* The U3-IR engine path with the window, as [compile_cli --stream -w
   trasyn] runs it: every nontrivial rotation becomes a canonical U3
   target. *)
let stream_u3_digest jobs =
  let cfg =
    Stream_compile.config ~epsilon:0.2 ~ir:Settings.U3_ir ~window:64 ~jobs ~trasyn:small_trasyn
      ~budgets:[ 6 ] ()
  in
  match Stream_compile.run_circuit cfg (qaoa_prefix ~gates:1500) with
  | Ok (c, _) -> digest_of c
  | Error f -> Alcotest.fail (Robust.failure_to_string f)

(* The rotation ids a U3-IR run writes into the ledger, sorted so the
   digest pins their text and not their order. *)
let ledger_ids_digest jobs =
  Ledger.reset ();
  Ledger.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Ledger.set_enabled false;
      Ledger.reset ())
  @@ fun () ->
  List.iter
    (fun c ->
      ignore (Pipeline.run_trasyn ~epsilon:0.2 ~config:small_trasyn ~budgets:[ 6 ] ~jobs c))
    [ Generators.qft 3; Generators.vqe_hea ~seed:2 ~n:4 ~layers:1 ];
  List.map (fun (r : Ledger.record) -> r.Ledger.target) (Ledger.records ())
  |> List.sort compare |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* The shipped TRASYN configuration, as [compile_cli -w trasyn] runs
   it: the depth-10 step-0 table, its lookup and the step-3 peephole
   at that depth, on two small members of the 187-circuit suite. *)
let shipped_trasyn_digest jobs =
  let suite = Suite.all () in
  let config = (Stream_compile.config ()).Stream_compile.trasyn in
  List.map
    (fun name ->
      let b = List.find (fun (b : Suite.benchmark) -> b.Suite.name = name) suite in
      digest_of (Pipeline.run_trasyn ~epsilon:0.07 ~config ~jobs b.Suite.circuit).Pipeline.circuit)
    [ "qpe-5"; "qaoa-4-p3-1" ]
  |> String.concat " "

(* The depth-10 step-0 table itself, in index order: each entry's word,
   T count, Clifford count and the IEEE bits of its four matrix
   entries.  A change to the enumeration order, a word, a count or a
   single float bit fails here before any compile digest moves. *)
let table_digest () =
  let table = Ma_table.get 10 in
  let b = Buffer.create (1 lsl 22) in
  let bits (z : Cplx.t) =
    Printf.bprintf b " %Lx %Lx" (Int64.bits_of_float z.Cplx.re) (Int64.bits_of_float z.Cplx.im)
  in
  for i = 0 to Ma_table.size table - 1 do
    Printf.bprintf b "%s %d %d" (Ma_table.word_string table i) (Ma_table.tcount table i)
      (Ma_table.ccount table i);
    let m = Ma_table.mat table i in
    List.iter bits Mat2.[ m.m00; m.m01; m.m10; m.m11 ];
    Buffer.add_char b '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The depth-10 lookup on 1,000 seeded random words of at most 24
   gates: the index it answers (or "-") and that entry's word, so the
   tie rule between equal operators is pinned too. *)
let lookup_digest () =
  let table = Ma_table.get 10 in
  let rng = Random.State.make [| 17 |] in
  let gates = Ctgate.[| H; S; Sdg; T; Tdg; X; Y; Z |] in
  let b = Buffer.create 65536 in
  for _ = 1 to 1000 do
    let word = List.init (Random.State.int rng 25) (fun _ -> gates.(Random.State.int rng 8)) in
    (match Ma_table.find table (Exact_u.of_seq word) with
    | Some i -> Printf.bprintf b "%d %s" i (Ma_table.word_string table i)
    | None -> Buffer.add_char b '-');
    Buffer.add_char b '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let table_cases =
  [
    ("step-0 table depth 10", "8b7a5d41d2b7b726d128b1baa19cf150", table_digest);
    ("step-0 table lookups", "70d2ba312e20a97d7eeaeddf72f0d3c5", lookup_digest);
  ]

let suite =
  List.map
    (fun (name, want, compile) ->
      Alcotest.test_case name `Slow (fun () ->
          List.iter
            (fun jobs ->
              Pipeline.clear_caches ();
              let got = compile jobs in
              Pipeline.clear_caches ();
              Alcotest.(check string) (Printf.sprintf "%s --jobs %d" name jobs) want got)
            [ 1; 2 ]))
    (List.map (fun (name, want, compile) -> (name, want, fun jobs -> digest_of (compile jobs))) cases
    @ [
        ("stream qaoa prefix text", "559e4dee32bb18eaaa579ba01dc0be2f", stream_text_digest);
        ("stream qaoa prefix u3", "9c312e7c036d52b81a211e95ed6002c9", stream_u3_digest);
        ("trasyn ledger ids", "a8f0a1c83fb6f7d274f021db50325fcd", ledger_ids_digest);
        ( "trasyn shipped config",
          "ddcde36b81b25b3d53942a3aacf6c5d7 aad850657301a7e9cf0e86fcd613e2eb",
          shipped_trasyn_digest );
      ])
  @ List.map
      (fun (name, want, digest) ->
        Alcotest.test_case name `Slow (fun () -> Alcotest.(check string) name want (digest ())))
      table_cases
