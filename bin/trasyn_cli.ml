(* Command-line TRASYN: synthesize U3(θ,φ,λ) into a Clifford+T word,
   routed through the synthesis-backend registry.

   dune exec bin/trasyn_cli.exe -- --theta 0.4 --phi 1.1 --lam -0.7 --epsilon 0.01 *)

open Cmdliner

(* One provenance record for a direct (chainless) backend call: a
   one-rung run at the requested ε; the rotation still "exits Synth",
   it just never went through a ladder.  A best-effort run (no
   --epsilon) is never degraded. *)
let record_direct ~backend ~target ~eps_req ~best_effort ~wall_s result =
  if Ledger.enabled () then
    Ledger.record
      {
        (Synth.ledger_record ?degraded:(if best_effort then Some false else None) ~wall_s ~target
           ~gate_set:"cliffordt" ~chain:backend ~eps_req
           (Result.map
              (fun (word, distance) ->
                { Robust.word; distance; backend; fallbacks = 0; rung_epsilon = eps_req })
              result))
        with
        Ledger.rung_eps = eps_req;
      }

let run theta phi lam epsilon budget sites samples trace ledger_out =
  match
    Robust.guarded @@ fun () ->
    (match ledger_out with Some p -> Ledger.to_file p | None -> ());
    Obs.with_trace ?file:trace @@ fun () ->
    Obs.span "cli.trasyn" @@ fun () ->
    let target =
      let t, p, l = Mat2.to_u3_angles (Mat2.u3 theta phi lam) in
      Synth.U3 (t, p, l)
    in
    let budgets = List.init sites (fun _ -> budget) in
    let trasyn = { Trasyn.default_config with table_t = budget; samples } in
    (* No --epsilon means best effort: ε = 0 is never met, so the
       backend burns the full budget and reports the best word seen. *)
    let eps = Option.value epsilon ~default:0.0 in
    let cfg = Synth.config ~trasyn ~budgets ~epsilon:eps () in
    let module B = (val Synth.find_exn "trasyn") in
    let t0 = Obs.Clock.elapsed_s () in
    let result = B.synthesize target cfg in
    let wall_s = Obs.Clock.elapsed_s () -. t0 in
    record_direct ~backend:"trasyn" ~target ~eps_req:eps ~best_effort:(epsilon = None) ~wall_s
      result;
    match result with
    | Error f -> Robust.fail f
    | Ok (seq, distance) -> (
        Printf.printf "sequence : %s\n" (Ctgate.seq_to_string seq);
        Printf.printf "T count  : %d\n" (Ctgate.t_count seq);
        Printf.printf "Cliffords: %d\n" (Ctgate.clifford_count seq);
        Printf.printf "distance : %.4e\n" distance;
        match epsilon with
        | Some e when distance > e ->
            prerr_endline "warning: threshold not met; raise --sites or --budget";
            1
        | _ -> 0)
  with
  | Ok code -> code
  | Error msg ->
      prerr_endline msg;
      1

let theta = Arg.(required & opt (some float) None & info [ "theta" ] ~doc:"U3 theta angle")
let phi = Arg.(value & opt float 0.0 & info [ "phi" ] ~doc:"U3 phi angle")
let lam = Arg.(value & opt float 0.0 & info [ "lam" ] ~doc:"U3 lambda angle")
let epsilon = Arg.(value & opt (some float) None & info [ "epsilon" ] ~doc:"target unitary distance")
let budget = Arg.(value & opt int 8 & info [ "budget" ] ~doc:"T budget per MPS site (table depth)")
let sites = Arg.(value & opt int 3 & info [ "sites" ] ~doc:"maximum number of MPS sites")
let samples = Arg.(value & opt int 1024 & info [ "samples" ] ~doc:"number of sampled sequences (k)")

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"write an observability trace (spans + metrics, JSONL) to $(docv); the TGATES_TRACE \
              environment variable does the same")

let ledger_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docv:"FILE"
        ~doc:"append a tgates-ledger/v1 provenance record (JSONL) to $(docv); the TGATES_LEDGER \
              environment variable does the same")

let cmd =
  Cmd.v
    (Cmd.info "trasyn" ~doc:"Tensor-network synthesis of single-qubit unitaries over Clifford+T")
    Term.(const run $ theta $ phi $ lam $ epsilon $ budget $ sites $ samples $ trace $ ledger_out)

let () = exit (Cmd.eval' cmd)
