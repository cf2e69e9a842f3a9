(* See pool.mli.  The pool is generic over the job result: the compile
   engine and the server run Synth chains on it, and tests drive it with
   stubs. *)

let c_jobs = Obs.counter "obs.planner.jobs"
let c_dedup = Obs.counter "obs.planner.dedup_hits"
let c_domains = Obs.counter "obs.planner.domains"
let g_queue_depth = Obs.gauge "obs.planner.queue_depth"

type 'a t = {
  domains : int;
  capacity : int;
  job_deadline : unit -> Obs.Deadline.t;
  queue : (int -> unit) Queue.t;  (* jobs, applied to the index of the domain running them *)
  results : (string, ('a, Robust.failure) result option) Hashtbl.t;
      (* [None] while the key's job is queued or running *)
  lock : Mutex.t;
  changed : Condition.t;  (* a job was queued or finished, or the pool closed *)
  mutable closed : bool;
  mutable unique : int;
  mutable waits : int;
  mutable helpers : unit Domain.t list;  (* touched by the owner only *)
}

(* Synthesis jobs allocate heavily, and every minor collection is a
   stop-all-domains barrier; at the default minor-heap size the barrier
   fires so often that domains spend most of their time synchronizing
   (measured ~4x slowdown with 4 domains on one core).  Every domain
   that runs jobs beside a helper gets a roomier minor heap once and
   keeps it.  The heap never shrinks back: on OCaml 5.1.1, resizing
   domain 0's minor heap at the end of a run, while server threads and
   other domains run, crashes serve_cli with SIGSEGV under batch load
   (test/serve_stress.ml). *)
let minor_heap_words = 4 * 1024 * 1024

let enlarge_minor_heap () =
  let g = Gc.get () in
  if g.Gc.minor_heap_size < minor_heap_words then
    Gc.set { g with Gc.minor_heap_size = minor_heap_words }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Caller holds the lock. *)
let pop t =
  let job = Queue.pop t.queue in
  Obs.set_gauge g_queue_depth (float_of_int (Queue.length t.queue));
  job

(* A job captures its submitter's request context and span, and
   publishes its result.  A domain never dies mid-run: a stray
   exception becomes this job's failure. *)
let make_job t key work =
  let ctx = Obs.current_request () and parent = Obs.current_span_id () in
  fun idx ->
    let t0 = Obs.Clock.elapsed_s () in
    let failed f =
      Obs.set_span_attr "backend" "failed";
      Error f
    in
    let r =
      Obs.with_span_parent parent @@ fun () ->
      Obs.with_request ctx @@ fun () ->
      Obs.span "planner.job" @@ fun () ->
      match work ~deadline:(t.job_deadline ()) with
      | Ok _ as ok -> ok
      | Error f -> failed f
      | exception Robust.Failure_exn f -> failed f
      | exception e -> failed (Robust.Backend_error (Printexc.to_string e))
    in
    Obs.add_gauge
      (Obs.gauge (Printf.sprintf "obs.planner.domain.%d.busy_s" idx))
      (Obs.Clock.elapsed_s () -. t0);
    Obs.incr (Obs.counter (Printf.sprintf "obs.planner.domain.%d.jobs" idx));
    with_lock t (fun () ->
        Hashtbl.replace t.results key (Some r);
        Condition.broadcast t.changed)

(* Block the caller (domain 0) until [ready] — checked under the lock —
   yields, running queued jobs meanwhile. *)
let help_until t ready =
  Mutex.lock t.lock;
  let rec go () =
    match ready () with
    | Some v ->
        Mutex.unlock t.lock;
        v
    | None when Queue.is_empty t.queue ->
        Condition.wait t.changed t.lock;
        go ()
    | None ->
        let job = pop t in
        Mutex.unlock t.lock;
        job 0;
        Mutex.lock t.lock;
        go ()
  in
  go ()

let helper t idx () =
  enlarge_minor_heap ();
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.closed do
      Condition.wait t.changed t.lock
    done;
    if t.closed then Mutex.unlock t.lock
    else begin
      let job = pop t in
      Mutex.unlock t.lock;
      job idx;
      loop ()
    end
  in
  loop ()

let submit t key work =
  Mutex.lock t.lock;
  let fresh = not (Hashtbl.mem t.results key) in
  if fresh then begin
    Hashtbl.replace t.results key None;
    t.unique <- t.unique + 1
  end;
  let full = fresh && t.domains > 1 && Queue.length t.queue >= t.capacity in
  if full then t.waits <- t.waits + 1;
  Mutex.unlock t.lock;
  Obs.incr (if fresh then c_jobs else c_dedup);
  (if fresh then
     let job = make_job t key work in
     if t.domains = 1 then job 0
     else begin
       if full then
         help_until t (fun () -> if Queue.length t.queue < t.capacity then Some () else None);
       with_lock t (fun () ->
           Queue.push job t.queue;
           Obs.set_gauge g_queue_depth (float_of_int (Queue.length t.queue));
           Condition.broadcast t.changed);
       (* Lazily: one helper per unique job beyond the first. *)
       if List.length t.helpers < Int.min t.domains t.unique - 1 then begin
         if t.helpers = [] then enlarge_minor_heap ();
         Obs.incr c_domains;
         t.helpers <- Domain.spawn (helper t (List.length t.helpers + 1)) :: t.helpers
       end
     end);
  fresh

let poll t key = with_lock t (fun () -> Option.join (Hashtbl.find_opt t.results key))

let await t key =
  if not (with_lock t (fun () -> Hashtbl.mem t.results key)) then raise Not_found;
  help_until t (fun () -> Hashtbl.find t.results key)

let backpressure_waits t = t.waits

let run ?jobs ?(capacity = max_int) ?(deadline = Obs.Deadline.none) ?job_budget f =
  let job_deadline () =
    match job_budget with
    | None -> deadline
    | Some b -> Obs.Deadline.earliest deadline (Obs.Deadline.after b)
  in
  let t =
    {
      domains = Int.max 1 (Option.value jobs ~default:(Domain.recommended_domain_count ()));
      capacity = Int.max 1 capacity;
      job_deadline;
      queue = Queue.create ();
      results = Hashtbl.create 64;
      lock = Mutex.create ();
      changed = Condition.create ();
      closed = false;
      unique = 0;
      waits = 0;
      helpers = [];
    }
  in
  Obs.incr c_domains;
  let shutdown () =
    with_lock t (fun () ->
        t.closed <- true;
        Queue.clear t.queue;
        Condition.broadcast t.changed);
    List.iter Domain.join t.helpers
  in
  Fun.protect ~finally:shutdown (fun () -> f t)
