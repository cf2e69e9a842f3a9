(** The compile engine: classify → memo → synthesize → emit, with
    bounded memory end to end.

    The producer (calling domain) pulls instructions from [next],
    optionally runs them through a {!Stream_opt} window, classifies
    what it gets, serves repeats from the memo, and submits unique
    synthesis targets to a bounded {!Pool} — when the pool's queue is
    full the producer runs queued jobs itself (backpressure), so
    parsing never outruns synthesis by more than the queue.  Results
    are emitted strictly in input order from a depth-bounded reorder
    FIFO, interleaved with parsing.  [Pipeline] runs the same engine
    over a transpiled circuit with no window.

    Determinism: per-key synthesis is deterministic and occurrences are
    emitted in input order, so the output is byte-identical whatever
    the domain count — and identical to feeding the same input through
    {!run_circuit} in one batch, which is how the runtest bit-identity
    gate checks the streaming machinery. *)

let c_bp_waits = Obs.counter "obs.stream.backpressure_waits"
let c_in = Obs.counter "obs.stream.gates_in"
let c_out = Obs.counter "obs.stream.gates_out"
let c_hit = Obs.counter "pipeline.memo.hit"
let c_miss = Obs.counter "pipeline.memo.miss"
let c_evictions = Obs.counter "pipeline.memo.evictions"
let c_degraded = Obs.counter "pipeline.rotation.degraded"
let h_rot_tcount =
  Obs.histogram ~buckets:(Array.init 41 (fun i -> float_of_int (4 * i))) "pipeline.rotation.t_count"
let g_heap_peak = Obs.gauge "obs.heap.peak_words"

(* ------------------------------------------------------------------ *)
(* Configuration                                                      *)
(* ------------------------------------------------------------------ *)

type config = {
  epsilon : float;
  gate_set : Gateset.t;
  ir : Settings.ir;
  window : int;  (** W: max gates held by the sliding optimizer *)
  queue : int;  (** job-queue capacity — the backpressure bound *)
  depth : int;  (** max out-of-order results awaiting emission *)
  jobs : int;  (** total domains (1 = synthesize on the producer) *)
  deadline : Obs.Deadline.t;
  rotation_budget : float option;
  chain : Synth.rung_spec list option;
  trasyn : Trasyn.config;
  budgets : int list;
}

let default_trasyn = { Trasyn.default_config with table_t = 10; samples = 48; beam = 4 }

let config ?(epsilon = 0.07) ?(gate_set = Gateset.default) ?(ir = Settings.Rz_ir)
    ?(window = 64) ?(queue = 32) ?(depth = 4096) ?(jobs = 1)
    ?(deadline = Obs.Deadline.none) ?rotation_budget ?chain ?(trasyn = default_trasyn)
    ?(budgets = Synth.default_budgets) () =
  if window < 1 then invalid_arg "Stream_compile.config: window must be >= 1";
  if queue < 1 then invalid_arg "Stream_compile.config: queue must be >= 1";
  if depth < 1 then invalid_arg "Stream_compile.config: depth must be >= 1";
  if jobs < 1 then invalid_arg "Stream_compile.config: jobs must be >= 1";
  { epsilon; gate_set; ir; window; queue; depth; jobs; deadline; rotation_budget;
    chain; trasyn; budgets }

type stats = {
  gates_in : int;
  gates_out : int;
  t_count : int;
  clifford_count : int;
  rotations_synthesized : int;
  unique_syntheses : int;
  dedup_hits : int;
  total_synth_error : float;
  degraded : int;
  backpressure_waits : int;
  peak_heap_words : int;
}

type degradation = {
  gate : string;
  backend : string;
  fallbacks : int;
  achieved : float;
  requested : float;
}

(* ------------------------------------------------------------------ *)
(* Canonical targets and the memo                                     *)
(* ------------------------------------------------------------------ *)

(* [Basis.norm_angle] already wraps into (−π, π] and snaps π/4
   multiples, but leaves −0.0 alone — whose "%.10f" key ("-0.0000…")
   differs from 0.0's, a spurious memo/dedup miss.  Synthesis uses the
   same canonical angle as the key, so one job's word serves every
   occurrence that shares the key. *)
let canonical_angle a =
  let a = Basis.norm_angle a in
  if a = 0.0 then 0.0 else a

let chain_of cfg =
  match (cfg.chain, cfg.ir) with
  | Some c, _ -> c
  | None, Settings.Rz_ir -> Synth.rz_chain ()
  | None, Settings.U3_ir -> Synth.u3_chain

(* The IR decides the target kind: under the U3 IR every rotation is
   the U3 of its canonical Euler angles; under the Rz IR every rotation
   must be an Rz. *)
let canonical_target ir g =
  match (ir, g) with
  | Settings.Rz_ir, Qgate.Rz theta -> Ok (Synth.Rz (canonical_angle theta))
  | Settings.Rz_ir, _ ->
      Error
        (Robust.Backend_error (Printf.sprintf "non-Rz rotation %s in Rz IR" (Qgate.to_string g)))
  | Settings.U3_ir, _ ->
      let t, p, l = Mat2.to_u3_angles (Qgate.to_mat2 g) in
      Ok (Synth.U3 (canonical_angle t, canonical_angle p, canonical_angle l))

let key_suffix cfg =
  Synth.key_suffix ~epsilon:cfg.epsilon ~chain:(Synth.chain_id (chain_of cfg))
    ~gate_set:cfg.gate_set.Gateset.name

let classify cfg =
  let suffix = key_suffix cfg in
  fun g -> Result.map (fun t -> (Synth.key ~suffix t, t)) (canonical_target cfg.ir g)

(* Clifford+T words are written in matrix order (leftmost factor applied
   last); instruction streams run in time order, so splicing a word
   reverses it.  Each word is lowered once, when it is made. *)
let lower seq = Array.of_list (List.rev_map Qgate.of_ctgate seq)

(* What a distinct rotation is, decided once: a trivial (≤1-T) rotation
   is its exact word, lowered; any other is its memo key and canonical
   target. *)
type front = Trivial of Qgate.t array | Nontrivial of string * Synth.target

(* The front table is keyed by the configuration's classification
   context (the IR and the key suffix) and the exact gate.  Angles
   compare by their bits, so gates that print differently (0.0 and
   -0.0) never share a cell. *)
module Front = Hashtbl.Make (struct
  type t = string * Qgate.t

  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

  let equal (c1, g1) (c2, g2) =
    String.equal c1 c2
    &&
    match (g1, g2) with
    | Qgate.Rx a, Qgate.Rx b | Qgate.Ry a, Qgate.Ry b | Qgate.Rz a, Qgate.Rz b -> same a b
    | Qgate.U3 (a1, b1, c1), Qgate.U3 (a2, b2, c2) -> same a1 a2 && same b1 b2 && same c1 c2
    | _ -> g1 = g2

  let hash = Hashtbl.hash
end)

(* The memo holds verified successes only, each with its word already
   lowered: failures are deadline-relative (a timeout now says nothing
   about the next run's budget).  It is bounded: past [capacity] entries
   it is flushed wholesale (counted as an eviction) rather than grown
   without limit — flush-all beats LRU because hits are dominated by
   repeats within one circuit.  It is touched only on the producer, in
   emission order, so its contents are independent of the domain count.
   In front of it, the front table classifies each distinct gate once
   (a step-0 table scan and a key, for gates massively repeated in
   QAOA-like inputs) under the same bound. *)
let memo : (string, Robust.attempt * Qgate.t array) Hashtbl.t = Hashtbl.create 256
let front : front Front.t = Front.create 256
let capacity = ref 65_536

let set_cache_capacity n =
  if n < 1 then invalid_arg "Stream_compile.set_cache_capacity: capacity must be positive";
  capacity := n

let clear_cache () =
  Hashtbl.reset memo;
  Front.reset front;
  Trasyn.clear_chain_cache ()

(* Flush [tbl] wholesale when it is full, counting the eviction. *)
let make_room length reset tbl =
  if length tbl >= !capacity then begin
    Obs.incr c_evictions;
    reset tbl
  end

(* The exact word of a trivial (≤1-T) rotation, from the step-0 table.
   Tolerant matching: a gate can pass the angle-space triviality test
   while its matrix sits a few ulps away from the exact operator
   (wrapped angles), which is a harmless substitution at circuit
   thresholds.  [None] when the gate genuinely needs synthesis. *)
let exact_word ~gate_set g =
  let m = Qgate.to_mat2 g in
  let table = Ma_table.get_for ~gate_set 1 in
  let cost i = (Ma_table.tcount table i, Ma_table.ccount table i) in
  let best = ref None in
  for i = 0 to Ma_table.size table - 1 do
    if Mat2.distance m (Ma_table.mat table i) < 1e-6 then
      match !best with Some b when cost b <= cost i -> () | _ -> best := Some i
  done;
  Option.map (fun i -> lower (Ma_table.word table i)) !best

exception Abort of Robust.failure

(* [classify_front cfg g] is rotation [g]'s cell in the front table,
   filled on first sight; [Abort] on a rotation the IR cannot take. *)
let classify_front cfg =
  let classify = classify cfg and gs = cfg.gate_set.Gateset.name in
  let context = Settings.ir_to_string cfg.ir ^ key_suffix cfg in
  fun g ->
    let k = (context, g) in
    match Front.find_opt front k with
    | Some f -> f
    | None ->
        let f =
          match exact_word ~gate_set:gs g with
          | Some w -> Trivial w
          | None -> (
              match classify g with
              | Ok (key, target) -> Nontrivial (key, target)
              | Error e -> raise (Abort e))
        in
        make_room Front.length Front.reset front;
        Front.add front k f;
        f

(* ------------------------------------------------------------------ *)
(* The engine                                                         *)
(* ------------------------------------------------------------------ *)

(* In-order output slots: a Direct gate, an exact word, or a rotation
   served by the memo ([hit]) or awaiting its pool job. *)
type slot =
  | Direct of Circuit.instr
  | Word of Qgate.t array * int array
  | Rotation of rotation

and rotation = {
  key : string;
  gate : Qgate.t;
  target : Synth.target;
  qubits : int array;
  hit : (Robust.attempt * Qgate.t array) option;
}

let heap_sample () =
  let s = Gc.quick_stat () in
  Obs.max_gauge g_heap_peak (float_of_int s.Gc.heap_words)

let compile cfg ~window ~on_degraded ~next ~emit =
  let chain = chain_of cfg in
  let chain_id = Synth.chain_id chain in
  let gs = cfg.gate_set.Gateset.name in
  let classify = classify_front cfg in
  let scfg =
    Synth.config ~gate_set:cfg.gate_set ~trasyn:cfg.trasyn ~budgets:cfg.budgets
      ~epsilon:cfg.epsilon ()
  in
  (* The timing span closes before the attribute is set, so the
     ["backend"] tag lands on the pool's [planner.job] span (what
     hotspots groups by). *)
  let synthesize target ~deadline =
    let r =
      Obs.span "pipeline.synthesize_rotation" (fun () ->
          Synth.run_chain ~deadline ~config:scfg chain target)
    in
    Result.map
      (fun (a : Robust.attempt) ->
        Obs.set_span_attr "backend" a.Robust.backend;
        (a, lower a.Robust.word))
      r
  in
  Pool.run ~jobs:cfg.jobs ~capacity:cfg.queue ~deadline:cfg.deadline
    ?job_budget:cfg.rotation_budget
  @@ fun pool ->
  (* Producer-side accounting (all touched only on this domain). *)
  let gates_in = ref 0 and gates_out = ref 0 in
  let t_count = ref 0 and cliffords = ref 0 in
  let nsynth = ref 0 and unique = ref 0 in
  let total_err = ref 0.0 and degraded = ref 0 in
  let out : slot Queue.t = Queue.create () in
  (* Keys whose job this run submitted: the first occurrence emitted is
     covered by the fresh ledger record and fills the memo. *)
  let fresh : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let emit_instr (i : Circuit.instr) =
    incr gates_out;
    Obs.incr c_out;
    if Qgate.is_t i.Circuit.gate then incr t_count
    else if Qgate.is_counted_clifford i.Circuit.gate then incr cliffords;
    emit i
  in
  let emit_word gates qubits =
    for k = 0 to Array.length gates - 1 do
      emit_instr (Circuit.instr gates.(k) qubits)
    done
  in
  (* The one emission pass: every occurrence's accounting happens here,
     in input order. *)
  let emit_rotation r ((a : Robust.attempt), gates) =
    incr nsynth;
    total_err := !total_err +. a.Robust.distance;
    if Option.is_none r.hit && Hashtbl.mem fresh r.key then begin
      Hashtbl.remove fresh r.key;
      Obs.observe h_rot_tcount (float_of_int (Ctgate.t_count a.Robust.word));
      make_room Hashtbl.length Hashtbl.reset memo;
      Hashtbl.add memo r.key (a, gates)
    end
    else if Ledger.enabled () then
      (* [Synth.run_chain] writes one fresh record per chain execution;
         every other occurrence gets a replay record, so a run's ledger
         holds exactly [rotations_synthesized] records. *)
      Ledger.record
        (Synth.ledger_record ~source:`Replay ~target:r.target ~gate_set:gs ~chain:chain_id
           ~eps_req:cfg.epsilon (Ok a));
    if a.Robust.fallbacks > 0 || a.Robust.distance > cfg.epsilon then begin
      incr degraded;
      Obs.incr c_degraded;
      on_degraded
        {
          gate = Qgate.to_string r.gate;
          backend = a.Robust.backend;
          fallbacks = a.Robust.fallbacks;
          achieved = a.Robust.distance;
          requested = cfg.epsilon;
        }
    end;
    emit_word gates r.qubits
  in
  (* Emit the FIFO head if its result is in; with [block], wait for it,
     running queued jobs meanwhile.  False when nothing was emitted. *)
  let emit_head ~block =
    match Queue.peek_opt out with
    | None -> false
    | Some (Direct i) ->
        ignore (Queue.pop out);
        emit_instr i;
        true
    | Some (Word (gates, qubits)) ->
        ignore (Queue.pop out);
        emit_word gates qubits;
        true
    | Some (Rotation r) -> (
        let result =
          match r.hit with
          | Some a -> Some (Ok a)
          | None -> if block then Some (Pool.await pool r.key) else Pool.poll pool r.key
        in
        match result with
        | None -> false
        | Some (Error f) -> raise (Abort f)
        | Some (Ok w) ->
            ignore (Queue.pop out);
            emit_rotation r w;
            true)
  in
  let drain () = while emit_head ~block:false do () done in
  let drain_to n = while Queue.length out > n do ignore (emit_head ~block:true) done in
  (* Classify one gate and append its output slot. *)
  let handle (g : Circuit.instr) =
    if not (Qgate.is_rotation g.Circuit.gate) then Queue.push (Direct g) out
    else
      match classify g.Circuit.gate with
      | Trivial gates -> Queue.push (Word (gates, g.Circuit.qubits)) out
      | Nontrivial (key, target) ->
          let hit = Hashtbl.find_opt memo key in
          (match hit with
          | Some _ -> Obs.incr c_hit
          | None ->
              if Pool.submit pool key (synthesize target) then begin
                Obs.incr c_miss;
                incr unique;
                Hashtbl.replace fresh key ()
              end);
          let qubits = g.Circuit.qubits in
          Queue.push (Rotation { key; gate = g.Circuit.gate; target; qubits; hit }) out
  in
  let window = if window then Some (Stream_opt.create ~window:cfg.window cfg.ir) else None in
  let rec pump () =
    match next () with
    | None -> ()
    | Some instr ->
        incr gates_in;
        Obs.incr c_in;
        (match window with Some w -> Stream_opt.push w instr ~emit:handle | None -> handle instr);
        drain ();
        (* Reorder-FIFO bound: past [depth] pending slots, stall the
           producer until the head result lands. *)
        drain_to cfg.depth;
        if !gates_in land 1023 = 0 then heap_sample ();
        pump ()
  in
  match
    pump ();
    Option.iter (fun w -> Stream_opt.flush w ~emit:handle) window;
    drain_to 0;
    heap_sample ()
  with
  | () ->
      let waits = Pool.backpressure_waits pool in
      Obs.incr ~by:waits c_bp_waits;
      Ok
        {
          gates_in = !gates_in;
          gates_out = !gates_out;
          t_count = !t_count;
          clifford_count = !cliffords;
          rotations_synthesized = !nsynth;
          unique_syntheses = !unique;
          dedup_hits = !nsynth - !unique;
          total_synth_error = !total_err;
          degraded = !degraded;
          backpressure_waits = waits;
          peak_heap_words = int_of_float (Obs.gauge_value g_heap_peak);
        }
  | exception Abort f -> Error f

(* ------------------------------------------------------------------ *)
(* Entry points                                                       *)
(* ------------------------------------------------------------------ *)

let run cfg ~next ~emit =
  Obs.span "pipeline.stream_compile" (fun () ->
      compile cfg ~window:true ~on_degraded:ignore ~next ~emit)

let compile_circuit cfg ~window ~on_degraded (c : Circuit.t) =
  let rem = ref c.Circuit.instrs in
  let next () =
    match !rem with
    | [] -> None
    | i :: tl ->
        rem := tl;
        Some i
  in
  let out = ref [] in
  compile cfg ~window ~on_degraded ~next ~emit:(fun i -> out := i :: !out)
  |> Result.map (fun st -> (Circuit.make c.Circuit.n_qubits (List.rev !out), st))

let run_circuit cfg c =
  Obs.span "pipeline.stream_compile" (fun () ->
      compile_circuit cfg ~window:true ~on_degraded:ignore c)

let compile_ir cfg ~on_degraded c = compile_circuit cfg ~window:false ~on_degraded c

let run_qasm cfg reader ~on_qreg ~emit =
  let next () =
    let rec go () =
      match Qasm_reader.next_event reader with
      | None -> None
      | Some (Qasm_reader.Qreg n) ->
          on_qreg n;
          go ()
      | Some (Qasm_reader.Instr i) -> Some i
    in
    go ()
  in
  run cfg ~next ~emit
