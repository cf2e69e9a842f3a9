(* See synth.mli for the contract.  This module is the one place that
   names the concrete backends; everything above it (pipeline, CLIs,
   bench) speaks only registry entries and chains. *)

type capability = Rz_only | Full_u3

type target = Store.target = Rz of float | U3 of float * float * float

(* ------------------------------------------------------------------ *)
(* Per-call configuration                                              *)
(* ------------------------------------------------------------------ *)

let default_budgets = [ 10; 10; 8 ]

type config = {
  epsilon : float;
  deadline : Obs.Deadline.t;
  gate_set : Gateset.t;
  trasyn : Trasyn.config;
  trasyn_budgets : int list;
  trasyn_attempts : int;
  gs_max_extra_n : int option;
  gs_candidates_per_n : int option;
  synthetiq_seconds : float;
  synthetiq_seed : int;
  sk_base_t : int option;
  sk_max_depth : int option;
}

let config ?(deadline = Obs.Deadline.none) ?(gate_set = Gateset.default)
    ?(trasyn = Trasyn.default_config) ?(budgets = default_budgets) ~epsilon () =
  {
    epsilon;
    deadline;
    gate_set;
    trasyn;
    trasyn_budgets = budgets;
    trasyn_attempts = 1;
    gs_max_extra_n = None;
    gs_candidates_per_n = None;
    synthetiq_seconds = 10.0;
    synthetiq_seed = 0;
    sk_base_t = None;
    sk_max_depth = None;
  }

let gate_set_name cfg = cfg.gate_set.Gateset.name

(* ------------------------------------------------------------------ *)
(* The backend signature and the four adapters                         *)
(* ------------------------------------------------------------------ *)

module type BACKEND = sig
  val name : string
  val capability : capability

  val supports_gate_set : string -> bool
  (* Which alphabets the backend can emit words over.  Exact-arithmetic
     backends (gridsynth, synthetiq, sk) are Clifford+T-native; trasyn
     samples whatever step-0 table the gate set resolves to. *)

  val synthesize : target -> config -> (Ctgate.t list * float, Robust.failure) result
end

type backend = (module BACKEND)

let backend_name (b : backend) =
  let module B = (val b) in
  B.name

let backend_capability (b : backend) =
  let module B = (val b) in
  B.capability

let backend_supports (b : backend) gate_set =
  let module B = (val b) in
  B.supports_gate_set gate_set

(* Convert the backends' native exception vocabulary to the structured
   taxonomy right at the adapter boundary, mirroring what run_chain
   catches for raw rungs. *)
let wrap name f =
  match f () with
  | word, distance -> Ok (word, distance)
  | exception Robust.Failure_exn fl -> Error fl
  | exception Gridsynth.Synthesis_failed msg -> Error (Robust.Backend_error msg)
  | exception Invalid_argument msg -> Error (Robust.Backend_error (name ^ ": " ^ msg))
  | exception Failure msg -> Error (Robust.Backend_error (name ^ ": " ^ msg))

module Trasyn_backend : BACKEND = struct
  let name = "trasyn"

  let capability = Full_u3

  (* Any alphabet with a step-0 table: [Ma_table.get_for] raises its
     structured error (converted by [wrap]) when none was provided. *)
  let supports_gate_set _ = true

  let synthesize target cfg =
    let m = Store.target_mat2 target in
    wrap name (fun () ->
        let tconf = { cfg.trasyn with Trasyn.gate_set = gate_set_name cfg } in
        let r =
          Trasyn.to_error ~config:tconf ~attempts:cfg.trasyn_attempts ~selection:`Min_t
            ~t_slack:2 ~target:m ~budgets:cfg.trasyn_budgets ~epsilon:cfg.epsilon ()
        in
        (r.Trasyn.seq, r.Trasyn.distance))
end

module Gridsynth_backend : BACKEND = struct
  let name = "gridsynth"

  (* Native domain is a single Rz word; [U3] targets still work,
     routed through the Eq. (1) Euler-angle decomposition (three Rz
     syntheses at ε/3) inside [Gridsynth.u3]. *)
  let capability = Rz_only

  let supports_gate_set = String.equal "cliffordt"

  let synthesize target cfg =
    wrap name (fun () ->
        match target with
        | Rz theta ->
            let r =
              Gridsynth.rz ?max_extra_n:cfg.gs_max_extra_n
                ?candidates_per_n:cfg.gs_candidates_per_n ~deadline:cfg.deadline ~theta
                ~epsilon:cfg.epsilon ()
            in
            (r.Gridsynth.seq, r.Gridsynth.distance)
        | U3 _ ->
            (* The angles come from the target's matrix, not from the
               target: [Mat2.to_u3_angles (Mat2.u3 t p l)] can differ
               from (t, p, l) in the last bit, and the golden digests
               pin the words this derivation gives. *)
            let theta, phi, lam = Mat2.to_u3_angles (Store.target_mat2 target) in
            let r =
              Gridsynth.u3 ?max_extra_n:cfg.gs_max_extra_n ~deadline:cfg.deadline ~theta ~phi
                ~lam ~epsilon:cfg.epsilon ()
            in
            (r.Gridsynth.seq, r.Gridsynth.distance))
end

module Synthetiq_backend : BACKEND = struct
  let name = "synthetiq"

  let capability = Full_u3

  let supports_gate_set = String.equal "cliffordt"

  let synthesize target cfg =
    let m = Store.target_mat2 target in
    wrap name (fun () ->
        let time_limit =
          Float.min cfg.synthetiq_seconds (Obs.Deadline.remaining_s cfg.deadline)
        in
        let r =
          Synthetiq.synthesize ~seed:cfg.synthetiq_seed ~time_limit ~target:m
            ~epsilon:cfg.epsilon ()
        in
        match r.Synthetiq.seq with
        | Some seq -> (seq, r.Synthetiq.distance)
        | None -> Robust.fail Robust.Budget_exhausted)
end

module Sk_backend : BACKEND = struct
  let name = "sk"

  let capability = Full_u3

  let supports_gate_set = String.equal "cliffordt"

  let synthesize target cfg =
    let m = Store.target_mat2 target in
    wrap name (fun () ->
        let r =
          Solovay_kitaev.synthesize_to ?base_t:cfg.sk_base_t ?max_depth:cfg.sk_max_depth
            ~epsilon:cfg.epsilon m
        in
        (r.Solovay_kitaev.seq, r.Solovay_kitaev.distance))
end

(* ------------------------------------------------------------------ *)
(* The registry                                                        *)
(* ------------------------------------------------------------------ *)

let reg_lock = Mutex.create ()

let reg : (string * backend) list ref = ref []

let locked f =
  Mutex.lock reg_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg_lock) f

let register (b : backend) =
  let name = backend_name b in
  locked (fun () ->
      if List.mem_assoc name !reg then
        invalid_arg ("Synth.register: duplicate backend " ^ name)
      else reg := !reg @ [ (name, b) ])

let find name = locked (fun () -> List.assoc_opt name !reg)

let find_exn name =
  match find name with
  | Some b -> b
  | None ->
      let known = locked (fun () -> String.concat ", " (List.map fst !reg)) in
      invalid_arg (Printf.sprintf "Synth.find_exn: unknown backend %S (known: %s)" name known)

let all () = locked (fun () -> List.map snd !reg)

let backends_for gate_set = List.filter (fun b -> backend_supports b gate_set) (all ())

let () =
  List.iter register
    [
      (module Trasyn_backend : BACKEND);
      (module Gridsynth_backend : BACKEND);
      (module Synthetiq_backend : BACKEND);
      (module Sk_backend : BACKEND);
    ]

(* ------------------------------------------------------------------ *)
(* Chains: fallback ladders as data                                    *)
(* ------------------------------------------------------------------ *)

type rung_spec = {
  rung_name : string;
  backend : backend;
  eps_scale : float;
  eps_floor : float;
  tweak : config -> config;
}

let rung ?name ?(eps_scale = 1.0) ?(eps_floor = 0.0) ?(tweak = Fun.id) backend =
  let rung_name = match name with Some n -> n | None -> backend_name backend in
  { rung_name; backend; eps_scale; eps_floor; tweak }

let chain_id chain = String.concat "," (List.map (fun s -> s.rung_name) chain)

(* Below ~0.45 a word is meaningfully closer to the target than a
   random unitary; the SK last resort accepts anything under it (and
   reports the achieved distance) rather than failing the rotation. *)
let sk_floor = 0.45

(* The sampled search is reliable down to ~1e-2 at fallback budgets;
   asking it for less just burns its budget before SK runs. *)
let trasyn_floor = 0.01

let trasyn_backend = find_exn "trasyn"

let gridsynth_backend = find_exn "gridsynth"

let sk_rung = rung ~eps_floor:sk_floor (find_exn "sk")

let u3_chain =
  [
    rung trasyn_backend;
    (* Reseed and double the sample budget: a miss at k samples is
       often a hit at 2k with a fresh stream. *)
    rung ~name:"trasyn.retry"
      ~tweak:(fun c ->
        {
          c with
          trasyn =
            {
              c.trasyn with
              Trasyn.seed = c.trasyn.Trasyn.seed lxor 0x2b5d;
              samples = c.trasyn.Trasyn.samples * 2;
            };
          trasyn_attempts = 2;
        })
      trasyn_backend;
    rung gridsynth_backend;
    sk_rung;
  ]

let rz_chain ?(gs_scale = 2.0) () =
  [
    rung gridsynth_backend;
    rung ~name:"gridsynth.retry" ~eps_scale:gs_scale
      ~tweak:(fun c -> { c with gs_max_extra_n = Some 60; gs_candidates_per_n = Some 128 })
      gridsynth_backend;
    rung ~eps_floor:trasyn_floor
      ~tweak:(fun c ->
        {
          c with
          trasyn = Trasyn.default_config;
          trasyn_budgets = default_budgets;
          trasyn_attempts = 2;
        })
      trasyn_backend;
    sk_rung;
  ]

let parse_chain s =
  let names =
    String.split_on_char ',' s |> List.map String.trim |> List.filter (fun n -> n <> "")
  in
  if names = [] then Error "empty backend chain"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest -> (
          match find n with
          | Some b ->
              (* A user-specified sk entry keeps its relaxed floor so
                 hand-built chains still land like the standard ones. *)
              let spec = if n = "sk" then rung ~eps_floor:sk_floor b else rung b in
              go (spec :: acc) rest
          | None ->
              Error
                (Printf.sprintf "unknown backend %S (known: %s)" n
                   (String.concat ", " (List.map backend_name (all ())))))
    in
    go [] names

(* ------------------------------------------------------------------ *)
(* Running a chain                                                     *)
(* ------------------------------------------------------------------ *)

let rung_of_spec ~config:base ~target spec : Robust.rung =
  let eps = Float.max (base.epsilon *. spec.eps_scale) spec.eps_floor in
  {
    Robust.name = spec.rung_name;
    rung_epsilon = eps;
    run =
      (fun deadline ->
        (* The chain runner owns deadline composition; the adapter just
           honours whatever it is handed. *)
        let cfg = spec.tweak { base with epsilon = eps; deadline } in
        let module B = (val spec.backend) in
        match B.synthesize target cfg with
        | Ok (word, distance) -> (word, distance)
        | Error f -> Robust.fail f);
  }

(* A key is the target's id plus everything else that can change the
   word: ε (written exactly, so a run at ε is never served a word made
   for a nearby ε), the chain and the alphabet. *)
let key_suffix ~epsilon ~chain ~gate_set = Printf.sprintf "@%h|%s|%s" epsilon chain gate_set

let key ~suffix target = Store.target_id target ^ suffix

let failure_tag : Robust.failure -> string = function
  | Robust.Timeout -> "timeout"
  | Robust.Budget_exhausted -> "budget_exhausted"
  | Robust.Verification_failed -> "verification_failed"
  | Robust.Backend_error _ -> "backend_error"

let ledger_record ?(source = `Fresh) ?attempts ?degraded ?(wall_s = 0.0) ~target ~gate_set
    ~chain ~eps_req outcome =
  let base =
    {
      Ledger.target = Store.target_id target;
      gate_set;
      chain;
      eps_req;
      rung_eps = nan;
      distance = nan;
      backend = "failed";
      fallbacks = 0;
      attempts = 1;
      t_count = 0;
      word_len = 0;
      wall_s;
      degraded = true;
      cached = source <> `Fresh;
      source = (match source with `Fresh -> "fresh" | `Replay -> "replay" | `Store -> "store");
      ok = false;
      failure = None;
      request_id = "";
    }
  in
  match outcome with
  | Ok (a : Robust.attempt) ->
      {
        base with
        Ledger.rung_eps = a.Robust.rung_epsilon;
        distance = a.Robust.distance;
        backend = a.Robust.backend;
        fallbacks = a.Robust.fallbacks;
        attempts = Option.value attempts ~default:(a.Robust.fallbacks + 1);
        t_count = Ctgate.t_count a.Robust.word;
        word_len = List.length a.Robust.word;
        degraded =
          Option.value degraded
            ~default:(a.Robust.fallbacks > 0 || a.Robust.distance > eps_req);
        ok = true;
      }
  | Error f ->
      let attempts = Option.value attempts ~default:1 in
      {
        base with
        Ledger.fallbacks = max 0 (attempts - 1);
        attempts;
        failure = Some (failure_tag f);
      }

let c_rotations = Obs.counter "synth.rotations"
let c_store_hit = Obs.counter "synth.store.hit"
let c_store_miss = Obs.counter "synth.store.miss"

(* The process-wide persistent store, when a CLI armed one.  Guarded by
   a mutex: [run_chain] runs on worker-pool domains.  (The store's
   own operations are internally locked; this mutex only protects the
   option cell.) *)
let store_lock = Mutex.create ()
let store_ref : Store.t option ref = ref None

let set_store s =
  Mutex.lock store_lock;
  store_ref := s;
  Mutex.unlock store_lock

let store () =
  Mutex.lock store_lock;
  let s = !store_ref in
  Mutex.unlock store_lock;
  s

let run_chain_sourced ?deadline ~config:cfg chain target =
  let deadline =
    match deadline with
    | Some d -> Obs.Deadline.earliest d cfg.deadline
    | None -> cfg.deadline
  in
  Obs.incr c_rotations;
  let t0 = Obs.Clock.elapsed_s () in
  let gs_name = gate_set_name cfg in
  let record ?attempts ?degraded source outcome =
    if Ledger.enabled () then
      Ledger.record
        (ledger_record ~source ?attempts ?degraded ~wall_s:(Obs.Clock.elapsed_s () -. t0) ~target
           ~gate_set:gs_name ~chain:(chain_id chain) ~eps_req:cfg.epsilon outcome)
  in
  (* Consult the persistent store first: a stored word whose verified
     distance is ≤ ε is a valid answer for this request (ε-monotonic
     reuse), already re-verified by the store's read path.  The lookup
     is keyed by the active gate set, so an alphabet never serves
     another alphabet's words. *)
  let store_hit =
    match store () with
    | None -> None
    | Some st ->
        (* Under its own span so a request's waterfall shows the store
           consult (and its outcome) as a step distinct from synthesis. *)
        Obs.span "synth.store.lookup" (fun () ->
            let hit = Store.lookup st ~gate_set:gs_name ~epsilon:cfg.epsilon target in
            Obs.incr (match hit with Some _ -> c_store_hit | None -> c_store_miss);
            Obs.set_span_attr "outcome" (match hit with Some _ -> "hit" | None -> "miss");
            hit)
  in
  match store_hit with
  | Some (e : Store.entry) ->
      let a =
        {
          Robust.word = e.Store.word;
          distance = e.Store.distance;
          backend = e.Store.backend;
          fallbacks = 0;
          rung_epsilon = cfg.epsilon;
        }
      in
      record ~attempts:0 ~degraded:false `Store (Ok a);
      Ok (a, `Store)
  | None ->
  (* Rungs whose backend cannot emit this alphabet are skipped, so a
     non-Clifford+T request falls through gridsynth/sk straight to the
     table-driven backends instead of getting a wrong-alphabet word. *)
  let usable = List.filter (fun spec -> backend_supports spec.backend gs_name) chain in
  let result =
    if usable = [] then
      Error
        (Robust.Backend_error
           (Printf.sprintf "no backend in chain %S supports gate set %S" (chain_id chain)
              gs_name))
    else
      Robust.run_chain ~deadline ~target:(Store.target_mat2 target)
        (List.map (rung_of_spec ~config:cfg ~target) usable)
  in
  (* One fresh provenance record per chain execution, success or
     failure; the pipelines add cached-replay records for occurrences
     served by dedup or the memo caches. *)
  record
    ?attempts:(match result with Ok _ -> None | Error _ -> Some (List.length usable))
    `Fresh result;
  (* A freshly synthesized, guard-verified word is worth keeping — under
     the alphabet that produced it, so cross-alphabet hits are
     impossible. *)
  (match (result, store ()) with
  | Ok (a : Robust.attempt), Some st when not (Store.readonly st) ->
      Store.put st
        {
          Store.gate_set = gs_name;
          target;
          eps_req = cfg.epsilon;
          distance = a.Robust.distance;
          word = a.Robust.word;
          t_count = Ctgate.t_count a.Robust.word;
          backend = a.Robust.backend;
          chain = chain_id chain;
        }
  | _ -> ());
  Result.map (fun a -> (a, `Fresh)) result

let run_chain ?deadline ~config chain target =
  Result.map fst (run_chain_sourced ?deadline ~config chain target)
