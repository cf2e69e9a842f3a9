(* Child processes: the shipped executables, run with tracing and
   fault injection switched off, stdout and stderr captured to files
   so a chatty child can never block on a full pipe.  Every child is
   waited for; children still alive at exit are killed and reaped. *)

let now = Obs.Clock.elapsed_s

(* The release executables built next to this one. *)
let bin name =
  Filename.concat
    (Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin")
    (name ^ ".exe")

(* The inherited environment minus the TGATES_* switches that would
   turn on traces, ledgers, metrics or injected faults, and with the
   OCaml runtime asked for its GC statistics at exit (v=0x400: a
   report on stderr, no change to how the GC runs), which give the
   peak heap of a child that does not print its own. *)
let child_env =
  lazy
    (Unix.environment () |> Array.to_list
    |> List.filter (fun kv ->
           not (String.starts_with ~prefix:"TGATES_" kv || String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
    |> List.cons "OCAMLRUNPARAM=v=0x400"
    |> Array.of_list)

let live : int list ref = ref []

(* Kill and reap every child still running. *)
let stop_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit stop_all

let read_file path = In_channel.with_open_bin path In_channel.input_all

let spawn ~out argv =
  let fd path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let o = fd out and e = fd (out ^ ".err") in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close o;
        Unix.close e)
      (fun () -> Unix.create_process_env argv.(0) argv (Lazy.force child_env) Unix.stdin o e)
  in
  live := pid :: !live;
  pid

let wait pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | _, st -> st
  in
  let st = go () in
  live := List.filter (( <> ) pid) !live;
  st

exception Child_failed of string

let status_string = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n

(* Run to completion; returns (wall seconds, stdout).  Stderr is kept
   in [out ^ ".err"].  A nonzero exit raises [Child_failed] with the
   child's stderr. *)
let run ~out argv =
  let t0 = now () in
  let pid = spawn ~out argv in
  let st = wait pid in
  let wall = now () -. t0 in
  match st with
  | Unix.WEXITED 0 -> (wall, read_file out)
  | st ->
      raise
        (Child_failed
           (Printf.sprintf "%s: %s\n%s" (Filename.basename argv.(0)) (status_string st)
              (try read_file (out ^ ".err") with Sys_error _ -> "")))
