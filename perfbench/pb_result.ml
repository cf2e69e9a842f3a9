(* What one run reports: named metrics with units and sample counts,
   operations attempted and failed, correctness errors, and the rows
   of the human-readable table. *)

type metric = { name : string; value : float; unit_ : string; samples : int }

type t = {
  mutable metrics : metric list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable rows : string list;
}

let create () = { metrics = []; attempted = 0; failed = 0; errors = []; rows = [] }

let error r e = r.errors <- e :: r.errors

(* A value JSON cannot carry (a p99 of failed requests is +inf) is an
   error, not a metric. *)
let metric r name unit_ ~samples value =
  if Float.is_finite value then r.metrics <- { name; value; unit_; samples } :: r.metrics
  else error r (Printf.sprintf "%s is %g" name value)
let check r = function Ok _ -> () | Error e -> error r e
let row r fmt = Printf.ksprintf (fun s -> r.rows <- s :: r.rows) fmt

let attempt r ~ok =
  r.attempted <- r.attempted + 1;
  if not ok then r.failed <- r.failed + 1

(* Time [f] and add the seconds to [acc]. *)
let timed acc f =
  let t0 = Pb_proc.now () in
  Fun.protect ~finally:(fun () -> acc := !acc +. (Pb_proc.now () -. t0)) f
