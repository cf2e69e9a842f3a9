(** The compile engine: incremental input → optional windowed
    optimization → classify → memo → pooled synthesis → in-order
    emission, all interleaved, with bounded memory end to end.

    The producer pulls instructions from a source, folds them through a
    {!Stream_opt} window (never more than W gates), and submits unique
    rotation targets to a bounded {!Pool} — a full queue makes the
    producer run queued jobs itself, so parsing never outruns synthesis
    (backpressure, visible as the [obs.planner.queue_depth] gauge and
    the [obs.stream.backpressure_waits] counter).  Synthesized words
    are spliced back strictly in input order from a depth-bounded
    reorder FIFO, interleaved with parsing, so output flows before the
    input is fully read.  [Pipeline] runs the same engine over a
    transpiled circuit with no window ({!compile_ir}).

    Output is byte-identical whatever [jobs] is, and identical to
    {!run_circuit} on the same input: per-key synthesis is
    deterministic, occurrences emit in input order, and the memo is
    touched only on the producer in emission order.

    Every caller shares one process-wide memo keyed by {!classify}:
    bounded, flush-all, counted by [pipeline.memo.hit] (occurrences
    served), [.miss] (unique keys sent to the pool) and [.evictions]. *)

type config = {
  epsilon : float;  (** per-rotation threshold *)
  gate_set : Gateset.t;
  ir : Settings.ir;  (** window IR: Rz phase-folding or U3 fusion *)
  window : int;  (** W — max gates held by the sliding optimizer *)
  queue : int;  (** job-queue capacity, the backpressure bound *)
  depth : int;  (** max out-of-order results awaiting emission *)
  jobs : int;  (** total domains; 1 = synthesize on the producer *)
  deadline : Obs.Deadline.t;
  rotation_budget : float option;  (** per-job seconds *)
  chain : Synth.rung_spec list option;  (** default: by [ir] *)
  trasyn : Trasyn.config;
  budgets : int list;
}

val config :
  ?epsilon:float ->
  ?gate_set:Gateset.t ->
  ?ir:Settings.ir ->
  ?window:int ->
  ?queue:int ->
  ?depth:int ->
  ?jobs:int ->
  ?deadline:Obs.Deadline.t ->
  ?rotation_budget:float ->
  ?chain:Synth.rung_spec list ->
  ?trasyn:Trasyn.config ->
  ?budgets:int list ->
  unit ->
  config
(** Defaults: ε 0.07, default gate set, Rz IR, window 64, queue 32,
    depth 4096, 1 job, no deadline, chain picked by IR
    ([Synth.rz_chain] / [Synth.u3_chain]).
    @raise Invalid_argument on a non-positive window/queue/depth/jobs. *)

type stats = {
  gates_in : int;  (** instructions consumed from the source *)
  gates_out : int;  (** instructions emitted *)
  t_count : int;
  clifford_count : int;
  rotations_synthesized : int;  (** nontrivial rotation occurrences *)
  unique_syntheses : int;  (** synthesis jobs actually run *)
  dedup_hits : int;  (** occurrences served by memo/in-flight dedup *)
  total_synth_error : float;
  degraded : int;  (** occurrences that fell back or overshot ε *)
  backpressure_waits : int;  (** times the producer blocked on the queue *)
  peak_heap_words : int;  (** process peak heap (obs.heap.peak_words) *)
}

val run :
  config ->
  next:(unit -> Circuit.instr option) ->
  emit:(Circuit.instr -> unit) ->
  (stats, Robust.failure) result
(** Drive the engine: pull from [next] until [None], push every output
    instruction to [emit] (in order, incrementally).  On a synthesis
    failure the run aborts with the structured failure; [emit]ed
    prefixes are valid output of the prefix consumed. *)

val run_qasm :
  config ->
  Qasm_reader.stream ->
  on_qreg:(int -> unit) ->
  emit:(Circuit.instr -> unit) ->
  (stats, Robust.failure) result
(** {!run} over an incremental QASM stream.  [on_qreg] fires on each
    [qreg] declaration (write your header there).
    @raise Qasm_reader.Parse_error as the underlying reader does. *)

val run_circuit : config -> Circuit.t -> (Circuit.t * stats, Robust.failure) result
(** The in-memory reference path: the same engine fed the whole circuit
    as one batch.  Streamed output must be bit-identical to this. *)

type degradation = {
  gate : string;  (** the IR rotation, e.g. ["rz(0.37)"] *)
  backend : string;  (** the rung that finally produced the word *)
  fallbacks : int;  (** rungs that failed before it *)
  achieved : float;  (** guard-verified distance *)
  requested : float;  (** the per-rotation threshold *)
}
(** A rotation occurrence that needed a fallback, or whose word sits
    above the requested threshold (e.g. a Solovay–Kitaev last resort). *)

val compile_ir :
  config ->
  on_degraded:(degradation -> unit) ->
  Circuit.t ->
  (Circuit.t * stats, Robust.failure) result
(** The engine with no window over a circuit already in [config.ir],
    as [Pipeline] runs it; [on_degraded] sees each degraded occurrence
    in order. *)

val canonical_angle : float -> float
(** [Basis.norm_angle] (wrap into (−π, π], snap π/4 multiples) with
    −0.0 mapped to 0.0: synthesis targets are built from it, so rz(θ)
    and rz(θ+2π) share one synthesis and one memo entry. *)

val canonical_target : Settings.ir -> Qgate.t -> (Synth.target, Robust.failure) result
(** The canonical target of a rotation — the one canonicalization every
    front-end uses (the engine's {!classify}, the server's request
    parser).  The IR decides the target kind: under the U3 IR a
    [Synth.U3] of the gate's [Mat2.to_u3_angles], each through
    {!canonical_angle}; under the Rz IR a [Synth.Rz] of the canonical
    angle, and any other rotation is a [Backend_error]. *)

val classify : config -> Qgate.t -> (string * Synth.target, Robust.failure) result
(** The memo key and the canonical target of a nontrivial rotation:
    {!canonical_target} under [config.ir], keyed by [Synth.key] with
    the configuration's ε, chain id and gate-set name.  The key's
    leading id ([Store.target_id]) is the text the ledger and the
    server print for the rotation. *)

val set_cache_capacity : int -> unit
(** Bound the memo (default 65536 entries; flushed wholesale when full).
    @raise Invalid_argument when < 1. *)

val clear_cache : unit -> unit
(** Empty the memo, the front table (each distinct gate's
    classification, under the same bound) and TRASYN's chain cache (for
    cache-cold measurements and order-independent tests). *)
