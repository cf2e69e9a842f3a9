(** RQ1 experiments: Figure 7 (error vs T count, three tools at three
    scales), Table 1 (reduction statistics at ε = 0.001), and Figure 8
    (synthesis time).

    TRASYN runs at 1, 2 and 3 MPS sites (per-site T cap = table depth),
    GRIDSYNTH synthesizes U3 via Eq. (1) with ε/3 per rotation, and
    Synthetiq anneals under a wall-clock budget (its failures at tight
    thresholds are the expected result). *)

type row = {
  tool : string;
  scale : string;
  t : int;
  cliffords : int;
  distance : float;
  seconds : float;
  solved : bool;
}

let scales m = [ ("0.1", 0.1, [ m ]); ("0.01", 0.01, [ m; m ]); ("0.001", 0.001, [ m; m; m ]) ]

(* One registry-backed synthesis, timed and folded into a row.  A
   structured failure (e.g. Synthetiq missing its threshold inside the
   wall budget) becomes an unsolved row; medians filter on [solved]. *)
let synth_row ~tool ~scale cfg target =
  let module B = (val Synth.find_exn tool) in
  let r, dt = Util.time_it (fun () -> B.synthesize target cfg) in
  match r with
  | Ok (seq, distance) ->
      {
        tool;
        scale;
        t = Ctgate.t_count seq;
        cliffords = Ctgate.clifford_count seq;
        distance;
        seconds = dt;
        solved = true;
      }
  | Error _ ->
      { tool; scale; t = 0; cliffords = 0; distance = infinity; seconds = dt; solved = false }

let run ~unitaries ~samples ~table_t ~synthetiq_budget () =
  Util.header
    (Printf.sprintf
       "FIG 7 / TABLE 1 / FIG 8 — single-qubit synthesis, %d Haar-random unitaries" unitaries);
  let rng = Random.State.make [| 2026 |] in
  let targets = Array.init unitaries (fun _ -> Mat2.random_unitary rng) in
  let rows : row list ref = ref [] in
  let config = { Trasyn.default_config with samples; table_t } in
  Array.iteri
    (fun i target ->
      let target = Util.u3_target target in
      List.iter
        (fun (scale_name, eps, budgets) ->
          (* TRASYN in pure budget mode: ε = 0 is never met, so the full
             per-site budget is spent and the best word wins. *)
          let tr_cfg =
            Synth.config ~trasyn:{ config with seed = config.seed + i } ~budgets ~epsilon:0.0 ()
          in
          rows := synth_row ~tool:"trasyn" ~scale:scale_name tr_cfg target :: !rows;
          (* GRIDSYNTH via Eq. (1), ε/3 per rotation *)
          rows :=
            synth_row ~tool:"gridsynth" ~scale:scale_name (Synth.config ~epsilon:eps ()) target
            :: !rows;
          (* Synthetiq *)
          let sq_cfg =
            {
              (Synth.config ~epsilon:eps ()) with
              Synth.synthetiq_seconds = synthetiq_budget;
              synthetiq_seed = i + 1;
            }
          in
          rows := synth_row ~tool:"synthetiq" ~scale:scale_name sq_cfg target :: !rows)
        (scales table_t))
    targets;
  let rows = List.rev !rows in
  (* Figure 7: the scatter series. *)
  Printf.printf "\n--- fig7 rows: tool scale T cliffords distance ---\n";
  List.iter
    (fun r ->
      Printf.printf "fig7 %-9s eps=%-5s T=%-3d C=%-3d dist=%.3e%s\n" r.tool r.scale r.t r.cliffords
        r.distance
        (if r.solved then "" else "  (FAILED)"))
    rows;
  (* Table 1: reductions at the 0.001 scale. *)
  Printf.printf "\n--- table1: TRASYN vs GRIDSYNTH reductions at eps=0.001 ---\n";
  let at tool scale = List.filter (fun r -> r.tool = tool && r.scale = scale) rows in
  let pairwise f =
    List.map2 (fun (g : row) (t : row) -> f g t) (at "gridsynth" "0.001") (at "trasyn" "0.001")
  in
  Util.summary_line "T reduction"
    (pairwise (fun g t -> float_of_int g.t /. float_of_int (max 1 t.t)));
  Util.summary_line "Clifford reduction"
    (pairwise (fun g t -> float_of_int g.cliffords /. float_of_int (max 1 t.cliffords)));
  Util.summary_line "log-error ratio"
    (pairwise (fun g t -> Float.log t.distance /. Float.log g.distance));
  (* Per-scale medians, the cluster centers of the figure. *)
  Printf.printf "\n--- fig7 cluster medians ---\n";
  List.iter
    (fun (scale_name, _, _) ->
      List.iter
        (fun tool ->
          let rs = at tool scale_name in
          let solved = List.filter (fun r -> r.solved) rs in
          Printf.printf
            "fig7-median %-9s eps=%-5s solved=%d/%d medianT=%.0f medianDist=%.2e\n" tool scale_name
            (List.length solved) (List.length rs)
            (Util.median (List.map (fun r -> float_of_int r.t) solved))
            (Util.median (List.map (fun r -> r.distance) solved)))
        [ "trasyn"; "gridsynth"; "synthetiq" ])
    (scales table_t);
  (* Figure 8: timing quantiles. *)
  Printf.printf "\n--- fig8: synthesis time (s) ---\n";
  List.iter
    (fun (scale_name, _, _) ->
      List.iter
        (fun tool ->
          let ts = List.map (fun r -> r.seconds) (at tool scale_name) in
          Printf.printf "fig8 %-9s eps=%-5s p10=%.4f median=%.4f p90=%.4f mean=%.4f\n" tool
            scale_name (Util.quantile 0.1 ts) (Util.median ts) (Util.quantile 0.9 ts) (Util.mean ts))
        [ "trasyn"; "gridsynth"; "synthetiq" ])
    (scales table_t)
