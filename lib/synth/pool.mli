(** The bounded, deduplicating worker pool that every synthesis job
    runs on: the compile engine's rotations and the server's batches.

    Jobs are keyed, and a key submitted twice runs once: the first job
    wins.  The calling domain is one of the pool's domains — whenever
    it is blocked, on a full queue or on a result, it runs queued jobs
    itself — and helper domains are spawned lazily, one per unique job
    beyond the first, up to [jobs - 1].  Results are keyed, so they do
    not depend on the domain count or the scheduling order.

    Observability: [obs.planner.jobs] / [obs.planner.dedup_hits]
    (unique and repeated submissions), [obs.planner.domains],
    [obs.planner.queue_depth], and per-domain
    [obs.planner.domain.<i>.busy_s] / [.jobs] (0 is the calling
    domain), which [Metrics] turns into utilization series.  Each job
    runs in a ["planner.job"] span under the span that submitted it. *)

type 'a t

val run :
  ?jobs:int -> ?capacity:int -> ?deadline:Obs.Deadline.t -> ?job_budget:float -> ('a t -> 'b) -> 'b
(** [run f] gives [f] a fresh pool of [jobs] domains, the caller
    included (default [Domain.recommended_domain_count ()]), whose
    queue holds at most [capacity] jobs (default unbounded).  When [f]
    returns or raises, unawaited queued jobs are dropped and the
    helpers joined.  A job's deadline is the tighter of [deadline] and
    [job_budget] seconds from its start.  Each domain that runs jobs
    beside a helper grows its minor heap once, and keeps it after the
    run: shrinking it back while other domains run can crash the
    process on OCaml 5.1.1. *)

val submit : 'a t -> string -> (deadline:Obs.Deadline.t -> ('a, Robust.failure) result) -> bool
(** Queue a job under a key; [false] (and nothing queued) when the key
    was already submitted.  With one domain the job runs at once.  The
    job runs under the submitter's request context
    ([Obs.current_request]); a job that raises fails alone, as a
    [Backend_error]. *)

val poll : 'a t -> string -> ('a, Robust.failure) result option
(** The key's result, if its job has finished. *)

val await : 'a t -> string -> ('a, Robust.failure) result
(** The key's result, running queued jobs until it is in.
    @raise Not_found when the key was never submitted. *)

val backpressure_waits : 'a t -> int
(** Submissions that found the queue full. *)
