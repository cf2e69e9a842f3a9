(* Synthesis timed inside a real compile.  Each rung's backend is
   wrapped in a timer and counters, so the engine keys, dedups and
   calls synthesis exactly as it does untraced, and the traced run
   needs no copy of the engine's keying.  Single domain only: the
   counters are plain mutable fields. *)

type t = {
  mutable s : float;  (** seconds inside the backends' [synthesize] *)
  mutable calls : int;  (** chain executions (calls to the first rung) *)
  mutable fallbacks : int;  (** calls to any later rung *)
}

let create () = { s = 0.0; calls = 0; fallbacks = 0 }

let wrap t chain =
  List.mapi
    (fun k (rung : Synth.rung_spec) ->
      let module B = (val rung.Synth.backend) in
      let backend : Synth.backend =
        (module struct
          include B

          let synthesize target config =
            if k = 0 then t.calls <- t.calls + 1 else t.fallbacks <- t.fallbacks + 1;
            let t0 = Pb_proc.now () in
            Fun.protect
              ~finally:(fun () -> t.s <- t.s +. (Pb_proc.now () -. t0))
              (fun () -> B.synthesize target config)
        end)
      in
      { rung with Synth.backend })
    chain
