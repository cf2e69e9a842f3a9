(** Unified synthesis-backend registry: every per-rotation synthesis in
    the compiler goes through here.

    The four concrete engines (TRASYN, GRIDSYNTH, SYNTHETIQ,
    Solovay–Kitaev) are wrapped as first-class modules of one
    {!BACKEND} signature and interned in a string-keyed registry
    ({!find} / {!all}), so the pipeline, the CLIs, and the benches
    never name a backend module — they name registry entries, and a
    [--backend-chain trasyn,gridsynth,sk] flag can rebuild any ladder
    at run time ({!parse_chain}).

    Fallback ladders are plain data: a chain is a [rung_spec list]
    (registry entry + per-rung ε policy + config tweak), executed by
    {!run_chain} on top of [Robust.run_chain], so guard verification,
    deadline propagation, retry/fallback counters, and fault injection
    all apply unchanged.  {!u3_chain} and {!rz_chain} reproduce the
    ladders the robust layer used to hard-wire, constant for
    constant. *)

(** {1 Targets and capability} *)

type capability =
  | Rz_only
      (** the engine natively synthesizes a single Rz word; [U3]
          targets are still accepted, routed through the Eq. (1)
          Euler-angle decomposition (three Rz syntheses at ε/3) *)
  | Full_u3  (** the engine hits an arbitrary SU(2) target directly *)

type target = Store.target = Rz of float | U3 of float * float * float
(** The one rotation-target type: the store's.  Its id is
    {!Store.target_id} and its matrix {!Store.target_mat2}; callers
    that hold a matrix pass the [U3] of its [Mat2.to_u3_angles]. *)

val key_suffix : epsilon:float -> chain:string -> gate_set:string -> string
(** The per-configuration part of a synthesis key:
    ["@" ^ ε written exactly ([%h]) ^ "|" ^ chain id ^ "|" ^ gate set]. *)

val key : suffix:string -> target -> string
(** [Store.target_id target ^ suffix]: the one identity of a synthesis,
    used as the engine's memo key and the server's batch dedup key.
    Two chains or alphabets can give one target different words at one
    ε, so they never share a key.  (The store's cell is ε-free by
    design: it serves any stored word within ε.) *)

(** {1 Per-call configuration} *)

type config = {
  epsilon : float;  (** requested unitary-distance threshold *)
  deadline : Obs.Deadline.t;
  gate_set : Gateset.t;
      (** active alphabet: keys store lookups/writes and ledger
          provenance, selects the TRASYN step-0 table, and filters
          chain rungs to backends that support it *)
  trasyn : Trasyn.config;
  trasyn_budgets : int list;  (** per-MPS-site T budgets *)
  trasyn_attempts : int;  (** reseeded tries per budget prefix *)
  gs_max_extra_n : int option;  (** [None] = backend default *)
  gs_candidates_per_n : int option;
  synthetiq_seconds : float;  (** anneal wall budget (tightened by [deadline]) *)
  synthetiq_seed : int;
  sk_base_t : int option;
  sk_max_depth : int option;
}

val default_budgets : int list
(** [\[10; 10; 8\]] — the standard ladder's TRASYN budgets. *)

val config :
  ?deadline:Obs.Deadline.t ->
  ?gate_set:Gateset.t ->
  ?trasyn:Trasyn.config ->
  ?budgets:int list ->
  epsilon:float ->
  unit ->
  config
(** Smart constructor with the standard defaults (no deadline,
    [Gateset.default], [Trasyn.default_config], {!default_budgets},
    1 attempt, backend-default gridsynth search, 10 s / seed 0
    synthetiq, default SK escalation). *)

val gate_set_name : config -> string
(** [config.gate_set.Gateset.name]. *)

(** {1 The backend signature} *)

module type BACKEND = sig
  val name : string
  (** registry key, counter suffix, fault-injection key *)

  val capability : capability

  val supports_gate_set : string -> bool
  (** Which alphabets the engine can emit words over.  The exact
      -arithmetic engines (gridsynth, synthetiq, sk) are Clifford+T
      -native; trasyn samples whatever step-0 table the gate set
      resolves to ([Ma_table.get_for]). *)

  val synthesize : target -> config -> (Ctgate.t list * float, Robust.failure) result
  (** Produce (word, claimed distance) or a structured failure.  The
      claim is {e not} trusted: {!run_chain} re-verifies every word
      through [Robust.verify] before accepting it. *)
end

type backend = (module BACKEND)

val backend_name : backend -> string

val backend_capability : backend -> capability

val backend_supports : backend -> string -> bool
(** [backend_supports b gs] = [B.supports_gate_set gs]. *)

(** {1 Registry} *)

val register : backend -> unit
(** Add a backend under its [name].
    @raise Invalid_argument on a duplicate name. *)

val find : string -> backend option

val find_exn : string -> backend
(** @raise Invalid_argument on an unknown name. *)

val all : unit -> backend list
(** In registration order; the four built-ins ([trasyn], [gridsynth],
    [synthetiq], [sk]) are registered at module initialization. *)

val backends_for : string -> backend list
(** The registered backends that support the named gate set, in
    registration order. *)

(** {1 Chains as data} *)

type rung_spec = {
  rung_name : string;  (** counter / fault key; defaults to the backend name *)
  backend : backend;
  eps_scale : float;  (** rung threshold = max(ε·scale, floor) … *)
  eps_floor : float;  (** … so retry rungs can relax and last resorts floor *)
  tweak : config -> config;  (** per-rung config adjustment (reseeds etc.) *)
}

val rung :
  ?name:string -> ?eps_scale:float -> ?eps_floor:float -> ?tweak:(config -> config) ->
  backend -> rung_spec
(** [eps_scale] defaults to 1, [eps_floor] to 0, [tweak] to identity. *)

val chain_id : rung_spec list -> string
(** Comma-joined rung names — the chain's cache-key fingerprint. *)

val u3_chain : rung_spec list
(** TRASYN → reseeded TRASYN retry (doubled samples) → GRIDSYNTH
    (Eq. (1) decomposition at ε) → Solovay–Kitaev last resort at a
    relaxed threshold (max ε 0.45 — always lands, may be degraded). *)

val rz_chain : ?gs_scale:float -> unit -> rung_spec list
(** GRIDSYNTH → GRIDSYNTH retry at scaled ε ([gs_scale]·ε, default 2×,
    with a deeper candidate search) → TRASYN (threshold floored at
    0.01, the sampled search's reliable range) → Solovay–Kitaev last
    resort. *)

val parse_chain : string -> (rung_spec list, string) result
(** Parse a [--backend-chain] value: comma-separated registry names,
    e.g. ["trasyn,gridsynth,sk"].  Each name becomes a plain rung at
    the chain ε (an [sk] entry keeps its 0.45 floor so hand-built
    chains still land).  [Error] names the unknown backend and lists
    the known ones. *)

(** {1 Persistent store hookup} *)

val set_store : Store.t option -> unit
(** Arm (or disarm) the process-wide persistent synthesis store.  With
    a store armed, {!run_chain} consults it before executing any rung —
    a stored word with verified distance ≤ ε is served directly
    (["synth.store.hit"], ledger record with [cached = true] and
    [source = "store"], zero fallbacks) — and writes every fresh
    guard-verified word back with {!Store.put} (unless the store is
    read-only or degraded). *)

val store : unit -> Store.t option

(** {1 Running a chain} *)

val failure_tag : Robust.failure -> string
(** Short stable tag ("timeout", "budget_exhausted", ...) used in
    ledger records; the human-readable form stays
    [Robust.failure_to_string]. *)

val ledger_record :
  ?source:[ `Fresh | `Replay | `Store ] ->
  ?attempts:int ->
  ?degraded:bool ->
  ?wall_s:float ->
  target:target ->
  gate_set:string ->
  chain:string ->
  eps_req:float ->
  (Robust.attempt, Robust.failure) result ->
  Ledger.record
(** The provenance record of one rotation occurrence — the only place
    a [Ledger.record] is built.  [source] (default [`Fresh]) sets
    [source] and [cached].  On success the word, distance, backend,
    fallbacks and rung ε come from the attempt; [attempts] defaults to
    fallbacks + 1 and [degraded] to "fell back or overshot
    [eps_req]".  On failure the record carries the failure tag, no
    word, [nan] distances, and [attempts] (default 1) rungs tried.
    [wall_s] defaults to 0. *)

val run_chain :
  ?deadline:Obs.Deadline.t ->
  config:config ->
  rung_spec list ->
  target ->
  (Robust.attempt, Robust.failure) result
(** Execute the chain through [Robust.run_chain]: first rung whose
    guard-verified word meets its threshold wins.  Rungs whose backend
    does not support [config.gate_set] are skipped; a chain with no
    usable rung fails with a structured [Backend_error].  The effective
    deadline is the tighter of [deadline] and [config.deadline]; each
    rung sees it in its [config].

    Every call bumps ["synth.rotations"], and when the provenance
    ledger is armed ([Ledger.enabled]) appends one fresh record —
    success or failure — carrying the canonical target, requested and
    rung ε, guard-verified distance, winning backend, fallback depth,
    T-count, word length, wall time, and degraded flag. *)

val run_chain_sourced :
  ?deadline:Obs.Deadline.t ->
  config:config ->
  rung_spec list ->
  target ->
  (Robust.attempt * [ `Store | `Fresh ], Robust.failure) result
(** {!run_chain}, additionally reporting whether the word was served
    from the persistent store or freshly synthesized — what the batch
    server stamps into its responses. *)
