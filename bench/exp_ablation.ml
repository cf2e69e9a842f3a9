(** Ablations of TRASYN's design choices (beyond the paper's figures):
    post-processing on/off, number of MPS sites at comparable budgets,
    sample count, and sampling vs deterministic beam search. *)

let targets n = Array.init n (fun i -> Mat2.random_unitary (Random.State.make [| 99; i |]))

(* TRASYN through the registry in pure budget mode (ε = 0 is never met,
   so the full per-site budget is spent); a structured failure here
   would mean the adapter itself broke, so surface it loudly. *)
let run_one ~config ~budgets target =
  let module B = (val Synth.find_exn "trasyn") in
  match B.synthesize (Util.u3_target target) (Synth.config ~trasyn:config ~budgets ~epsilon:0.0 ()) with
  | Ok (seq, distance) -> (seq, distance)
  | Error f -> Robust.fail f

let postproc ~unitaries () =
  Util.header "ABL — step 3 post-processing on/off";
  let ts = targets unitaries in
  List.iter
    (fun post ->
      let results =
        Array.to_list
          (Array.map
             (fun t ->
               run_one
                 ~config:{ Trasyn.default_config with post_process = post }
                 ~budgets:[ 8; 8 ] t)
             ts)
      in
      Printf.printf "abl-postproc post=%b medianT=%.0f medianC=%.0f medianDist=%.2e\n" post
        (Util.median (List.map (fun (seq, _) -> float_of_int (Ctgate.t_count seq)) results))
        (Util.median (List.map (fun (seq, _) -> float_of_int (Ctgate.clifford_count seq)) results))
        (Util.median (List.map (fun (_, d) -> d) results)))
    [ false; true ]

let sites ~unitaries () =
  Util.header "ABL — site count at comparable total T budgets";
  let ts = targets unitaries in
  List.iter
    (fun (label, budgets, table_t) ->
      let config = { Trasyn.default_config with table_t } in
      let results = Array.to_list (Array.map (run_one ~config ~budgets) ts) in
      Printf.printf "abl-sites %-12s medianT=%.0f medianDist=%.2e\n" label
        (Util.median (List.map (fun (seq, _) -> float_of_int (Ctgate.t_count seq)) results))
        (Util.median (List.map (fun (_, d) -> d) results)))
    [ ("l=1,m=8", [ 8 ], 8); ("l=2,m=8", [ 8; 8 ], 8); ("l=3,m=6", [ 6; 6; 6 ], 6); ("l=4,m=4", [ 4; 4; 4; 4 ], 4) ]

let samples ~unitaries () =
  Util.header "ABL — sample count k";
  let ts = targets unitaries in
  List.iter
    (fun k ->
      let config = { Trasyn.default_config with samples = k } in
      let results, dt =
        Util.time_it (fun () -> Array.to_list (Array.map (run_one ~config ~budgets:[ 8; 8 ]) ts))
      in
      Printf.printf "abl-samples k=%-5d medianT=%.0f medianDist=%.2e time/call=%.2fs\n" k
        (Util.median (List.map (fun (seq, _) -> float_of_int (Ctgate.t_count seq)) results))
        (Util.median (List.map (fun (_, d) -> d) results))
        (dt /. float_of_int unitaries))
    [ 64; 256; 1024; 4096 ]

(* All four synthesis approaches on the same targets at a comparable
   error scale — the paper's §2.3 comparison in one table. *)
let baselines ~unitaries () =
  Util.header "ABL — TRASYN vs GRIDSYNTH vs Solovay-Kitaev vs Synthetiq (~1e-2 scale)";
  let ts = targets unitaries in
  let summarize name results =
    Printf.printf "abl-baselines %-10s medianT=%6.0f medianDist=%.2e medianLen=%6.0f\n" name
      (Util.median (List.map (fun (t, _, _) -> float_of_int t) results))
      (Util.median (List.map (fun (_, d, _) -> d) results))
      (Util.median (List.map (fun (_, _, l) -> float_of_int l) results))
  in
  let via tool cfg =
    let module B = (val Synth.find_exn tool) in
    Array.to_list
      (Array.map
         (fun t ->
           match B.synthesize (Util.u3_target t) cfg with
           | Ok (seq, d) -> (Ctgate.t_count seq, d, List.length seq)
           | Error _ -> (0, infinity, 0))
         ts)
  in
  summarize "trasyn" (via "trasyn" (Synth.config ~budgets:[ 8; 8 ] ~epsilon:0.0 ()));
  summarize "gridsynth" (via "gridsynth" (Synth.config ~epsilon:1e-2 ()));
  summarize "sk" (via "sk" { (Synth.config ~epsilon:1e-2 ()) with Synth.sk_max_depth = Some 3 });
  summarize "synthetiq"
    (via "synthetiq" { (Synth.config ~epsilon:1e-2 ()) with Synth.synthetiq_seconds = 1.0 })

let greedy ~unitaries () =
  Util.header "ABL — stochastic sampling vs deterministic beam";
  let ts = targets unitaries in
  List.iter
    (fun (label, samples, beam) ->
      let config = { Trasyn.default_config with samples; beam } in
      let results = Array.to_list (Array.map (run_one ~config ~budgets:[ 8; 8 ]) ts) in
      Printf.printf "abl-greedy %-14s medianT=%.0f medianDist=%.2e\n" label
        (Util.median (List.map (fun (seq, _) -> float_of_int (Ctgate.t_count seq)) results))
        (Util.median (List.map (fun (_, d) -> d) results)))
    [ ("sample-only", 1024, 0); ("beam-only", 1, 64); ("hybrid", 1024, 64) ]

(* The probabilistic-mixing extension (§5 related work): quadratic
   suppression of the synthesis error in norm distance. *)
let mixing ~unitaries () =
  Util.header "ABL — probabilistic mixing of TRASYN outputs";
  let ts = targets unitaries in
  let gains =
    Array.to_list
      (Array.map
         (fun t ->
           let m = Mixing.synthesize ~pool:8 ~target:t ~budgets:[ 8; 8 ] () in
           let gain = m.Mixing.deterministic_norm_distance /. m.Mixing.norm_distance in
           Printf.printf "abl-mixing det=%.3e mixed=%.3e gain=%.2fx p=%.2f\n"
             m.Mixing.deterministic_norm_distance m.Mixing.norm_distance gain m.Mixing.p;
           gain)
         ts)
  in
  Util.summary_line "mixing gain" gains
