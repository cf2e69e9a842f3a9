(** End-to-end FTQC compilation workflows (Figure 3(a) of the paper):
    transpile to an intermediate representation, then synthesize every
    nontrivial rotation into Clifford+T.

    The U3 workflow pairs the U3 IR (which merges adjacent rotations)
    with TRASYN; the Rz workflow pairs the Rz IR with GRIDSYNTH — the
    comparison at the heart of RQ2/RQ3/RQ4.

    A workflow is [Settings.best_for] followed by the compile engine
    ({!Stream_compile.compile_ir}) over the transpiled circuit, with no
    window: it canonicalizes every rotation ({!canonical_angle}), serves
    repeats from the memo, dedupes the rest into unique jobs on a
    worker pool across [jobs] domains with per-job deadlines, and
    splices the words back in circuit order.  The output is
    bit-identical whatever the domain count.

    Per-rotation synthesis runs a [Synth] chain through [Robust]: each
    word is re-verified against its target before entering the circuit,
    a failing backend falls back down the chain ending in
    Solovay–Kitaev, and deadlines propagate to every rung.  The
    direct-style entry points raise {!Robust.Failure_exn} when a
    rotation cannot be synthesized at all; the [_result] variants
    return the structured failure instead. *)

type degradation = Stream_compile.degradation = {
  gate : string;
  backend : string;
  fallbacks : int;
  achieved : float;
  requested : float;
}
(** One degraded rotation occurrence; see {!Stream_compile.degradation}. *)

type synthesized = {
  circuit : Circuit.t;  (** pure Clifford+T output *)
  transpiled : Circuit.t;  (** the IR circuit before synthesis *)
  setting : Settings.setting;  (** the transpiler setting that won *)
  rotations_synthesized : int;  (** nontrivial rotations sent to synthesis *)
  total_synth_error : float;  (** sum of per-rotation distances (an upper
                                  bound on accumulated synthesis error) *)
  degraded : degradation list;  (** rotations that fell back or overshot;
                                    empty on a fully clean run *)
}

val canonical_angle : float -> float
(** {!Stream_compile.canonical_angle}. *)

val clear_caches : unit -> unit
(** {!Stream_compile.clear_cache}: the compile paths share one memo. *)

val run_gridsynth :
  ?epsilon:float ->
  ?gate_set:Gateset.t ->
  ?deadline:Obs.Deadline.t ->
  ?rotation_budget:float ->
  ?transpile:bool ->
  ?jobs:int ->
  ?chain:Synth.rung_spec list ->
  Circuit.t ->
  synthesized
(** Rz IR + GRIDSYNTH-first chain at [epsilon] (default 0.07) per
    rotation; trivial (π/4-multiple) rotations are replaced by exact
    words.  [deadline] (absolute, monotonic clock) bounds the whole
    run; [rotation_budget] (seconds) additionally bounds each
    synthesis job.  [transpile:false] skips transpilation and treats the input as
    Rz IR directly — a non-Rz rotation then surfaces as a
    [Backend_error].  [jobs] is the worker-pool domain count (default
    [Domain.recommended_domain_count ()]); [chain] overrides the
    default [Synth.rz_chain] (e.g. from [Synth.parse_chain]) — memo
    keys carry the chain id {e and} the gate-set name, so words
    synthesized under different chains or alphabets never mix.
    [gate_set] (default [Gateset.default]) selects the alphabet: it
    keys the store and ledger, filters chain rungs to supporting
    backends, and picks the step-0 table (non-built-in sets need one
    provided via [Tablegen.load_and_provide]).
    @raise Robust.Failure_exn when a rotation cannot be synthesized. *)

val run_gridsynth_result :
  ?epsilon:float ->
  ?gate_set:Gateset.t ->
  ?deadline:Obs.Deadline.t ->
  ?rotation_budget:float ->
  ?transpile:bool ->
  ?jobs:int ->
  ?chain:Synth.rung_spec list ->
  Circuit.t ->
  (synthesized, Robust.failure) result
(** As {!run_gridsynth}, returning the structured failure. *)

val run_trasyn :
  ?epsilon:float ->
  ?gate_set:Gateset.t ->
  ?config:Trasyn.config ->
  ?budgets:int list ->
  ?deadline:Obs.Deadline.t ->
  ?rotation_budget:float ->
  ?transpile:bool ->
  ?jobs:int ->
  ?chain:Synth.rung_spec list ->
  Circuit.t ->
  synthesized
(** U3 IR + TRASYN-first chain in Eq. (4) mode at [epsilon] (default
    0.07), with the same deadline and worker-pool semantics as
    {!run_gridsynth}.
    @raise Robust.Failure_exn when a rotation cannot be synthesized. *)

val run_trasyn_result :
  ?epsilon:float ->
  ?gate_set:Gateset.t ->
  ?config:Trasyn.config ->
  ?budgets:int list ->
  ?deadline:Obs.Deadline.t ->
  ?rotation_budget:float ->
  ?transpile:bool ->
  ?jobs:int ->
  ?chain:Synth.rung_spec list ->
  Circuit.t ->
  (synthesized, Robust.failure) result
(** As {!run_trasyn}, returning the structured failure. *)

type comparison = {
  name : string;
  trasyn : synthesized;
  gridsynth : synthesized;
  t_ratio : float;  (** gridsynth T count / trasyn T count; > 1 = TRASYN wins *)
  t_depth_ratio : float;
  clifford_ratio : float;
}

val compare_workflows :
  ?epsilon:float ->
  ?gate_set:Gateset.t ->
  ?config:Trasyn.config ->
  ?budgets:int list ->
  ?deadline:Obs.Deadline.t ->
  ?rotation_budget:float ->
  ?jobs:int ->
  ?chain:Synth.rung_spec list ->
  name:string ->
  Circuit.t ->
  comparison
(** Run both workflows on one circuit.  Following §4.2, GRIDSYNTH's
    per-rotation threshold is [epsilon] scaled by the U3:Rz rotation
    ratio so both workflows land at comparable circuit-level error.
    [deadline] is absolute and shared across both passes;
    [rotation_budget] bounds each rotation in either pass; [jobs] and
    [chain] apply to both.
    @raise Robust.Failure_exn when either workflow fails outright. *)

val scaled_gridsynth_epsilon : epsilon:float -> u3_rotations:int -> rz_rotations:int -> float
(** The §4.2 threshold scaling rule, exposed for tests. *)
