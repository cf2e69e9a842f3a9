(* serve_stress: a bounded crash gate for serve_cli under load, wired
   into @runtest.

   Starts serve_cli on a Unix-domain socket with two pool domains
   (-j 2), the default admission queue (64 slots) and no GC settings,
   at ε 0.3 so that synthesis is quick and many batches run, and drives it from one connection for at most [burst_s] seconds with
   [window] requests outstanding: about half are 4-element batches (the
   pool path, which spawns a helper domain per batch), the rest rz
   singles (the worker thread), all over a 16-angle palette.  Most
   requests find the queue full and are shed as [overloaded] by the
   reading thread while both domains synthesize.

   Then it waits for every answer, sends shutdown, and requires:
   - the server exits with status 0 (not a signal);
   - exactly one response per request id, each either ok or
     [overloaded], with a 4-element [results] array on every served
     batch;
   - both the served and the shed paths ran.

   The executable arrives as argv: SERVE_CLI. *)

module J = Obs.Json

let burst_s = 5.0
let window = 3000
let palette = Array.init 16 (fun k -> (-.Float.pi) +. (2.0 *. Float.pi *. (float_of_int k +. 0.37) /. 16.0))
let batch_share = 0.5
let batch_len = 4

(* Waiting for the backlog after the burst and for the exit. *)
let settle_s = 60.0

let failf fmt = Printf.ksprintf (fun s -> prerr_endline ("serve_stress: FAIL: " ^ s); exit 1) fmt

let dir =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "tgates-serve-stress.%d" (Unix.getpid ()))

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      (try Unix.rmdir p with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink p with Unix.Unix_error _ -> ())

let read_file path =
  try
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  with Sys_error _ -> ""

let status_string = function
  | Unix.WEXITED c -> Printf.sprintf "exited with %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

let rz theta = Printf.sprintf {|{"op":"rz","theta":%.17g}|} theta

(* Request [id]'s wire line, and whether it is a batch. *)
let request rng id =
  let angle () = palette.(Random.State.int rng (Array.length palette)) in
  if Random.State.float rng 1.0 < batch_share then
    ( Printf.sprintf {|{"op":"batch","id":%d,"requests":[%s]}|} id
        (String.concat "," (List.init batch_len (fun _ -> rz (angle ())))),
      true )
  else (Printf.sprintf {|{"op":"rz","id":%d,"theta":%.17g}|} id (angle ()), false)

let () =
  if Array.length Sys.argv < 2 then failf "usage: serve_stress SERVE_CLI";
  let serve_cli = Sys.argv.(1) in
  (* A dead server surfaces as EPIPE on the socket, not as SIGPIPE here. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  rm_rf dir;
  Unix.mkdir dir 0o700;
  let sock_path = Filename.concat dir "serve.sock" in
  let log_path = Filename.concat dir "serve.log" in
  let log_fd = Unix.openfile log_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let null_fd = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process serve_cli
      [| serve_cli; "--socket"; sock_path; "-j"; "2"; "--epsilon"; "0.3" |]
      null_fd Unix.stdout log_fd
  in
  Unix.close null_fd;
  Unix.close log_fd;
  let exited = ref None in
  let die fmt =
    Printf.ksprintf
      (fun msg ->
        (match !exited with
        | Some _ -> ()
        | None ->
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] pid));
        prerr_endline ("serve_stress: FAIL: " ^ msg);
        prerr_endline ("server log:\n" ^ read_file log_path);
        rm_rf dir;
        exit 1)
      fmt
  in
  (* A server that died is the finding: report how. *)
  let check_alive () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _, st ->
        exited := Some st;
        die "server %s mid-run" (status_string st)
  in
  (* The connection broke: give the server a moment to finish dying. *)
  let lost what =
    let rec wait tries =
      check_alive ();
      if tries <= 0 then die "connection lost (%s) with the server still running" what;
      Unix.sleepf 0.05;
      wait (tries - 1)
    in
    wait 100
  in
  let rec await_socket tries =
    if not (Sys.file_exists sock_path) then begin
      check_alive ();
      if tries <= 0 then die "server did not bind %s" sock_path;
      Unix.sleepf 0.05;
      await_socket (tries - 1)
    end
  in
  await_socket 300;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec connect tries =
    match Unix.connect fd (Unix.ADDR_UNIX sock_path) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when tries > 0 ->
        Unix.sleepf 0.05;
        connect (tries - 1)
    | exception Unix.Unix_error (e, _, _) -> die "connect: %s" (Unix.error_message e)
  in
  connect 100;
  Unix.set_nonblock fd;

  (* Request id -> responses seen for it; batch ids are remembered so
     their results can be checked. *)
  let answers = Hashtbl.create 65536 in
  let batches = Hashtbl.create 65536 in
  let served = ref 0 and shed = ref 0 in
  let on_line line =
    let j = match J.parse line with Ok j -> j | Error e -> die "response is not JSON: %s" e in
    let id =
      match J.member "id" j with
      | Some (J.Num f) -> int_of_float f
      | _ -> die "response without a numeric id: %s" line
    in
    Hashtbl.replace answers id (1 + Option.value ~default:0 (Hashtbl.find_opt answers id));
    match (J.member "ok" j, J.member "error" j) with
    | Some (J.Bool true), _ ->
        incr served;
        if Hashtbl.mem batches id then begin
          match J.member "results" j with
          | Some (J.Arr rs) when List.length rs = batch_len ->
              List.iter
                (fun r ->
                  if J.member "ok" r <> Some (J.Bool true) then
                    die "batch element failed: %s" (J.to_string r))
                rs
          | _ -> die "malformed batch response: %s" line
        end
    | _, Some (J.Str "overloaded") -> incr shed
    | _ -> die "request %d failed: %s" id line
  in

  (* One event loop: keep [window] requests outstanding until the
     burst ends, write whatever the socket takes, read every answer. *)
  let rng = Random.State.make [| 16 |] in
  let out = Buffer.create 65536 in
  let wire = ref "" and wire_off = ref 0 in
  let rbuf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let sent = ref 0 in
  let received () = Hashtbl.length answers in
  let t0 = Unix.gettimeofday () in
  let bursting () = Unix.gettimeofday () -. t0 < burst_s in
  let pump ~deadline ~until =
    while not (until ()) do
      if Unix.gettimeofday () > deadline then
        die "gave up after %.0f s: %d sent, %d answered" (Unix.gettimeofday () -. t0) !sent
          (received ());
      check_alive ();
      if !wire_off = String.length !wire then begin
        wire := Buffer.contents out;
        wire_off := 0;
        Buffer.clear out
      end;
      let pending = String.length !wire - !wire_off in
      let writable = if pending > 0 then [ fd ] else [] in
      match Unix.select [ fd ] writable [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, writable, _ ->
          if writable <> [] then begin
            match Unix.single_write_substring fd !wire !wire_off pending with
            | n -> wire_off := !wire_off + n
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
            | exception Unix.Unix_error (e, _, _) -> lost ("write: " ^ Unix.error_message e)
          end;
          if readable <> [] then begin
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> lost "closed the connection early"
            | n ->
                for i = 0 to n - 1 do
                  match Bytes.get chunk i with
                  | '\n' ->
                      on_line (Buffer.contents rbuf);
                      Buffer.clear rbuf
                  | c -> Buffer.add_char rbuf c
                done
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
            | exception Unix.Unix_error (e, _, _) -> lost ("read: " ^ Unix.error_message e)
          end
    done
  in
  let top_up () =
    while bursting () && !sent - received () < window do
      let line, batch = request rng !sent in
      if batch then Hashtbl.replace batches !sent ();
      Buffer.add_string out line;
      Buffer.add_char out '\n';
      incr sent
    done
  in
  let deadline = t0 +. burst_s +. settle_s in
  pump ~deadline ~until:(fun () ->
      top_up ();
      (not (bursting ())) && received () >= !sent);

  (* Shutdown goes out only after every answer is in: the socket
     transport stops reading at shutdown, and answers still queued then
     have no client to go to. *)
  let n = !sent in
  Buffer.add_string out (Printf.sprintf {|{"op":"shutdown","id":%d}|} n);
  Buffer.add_char out '\n';
  pump ~deadline ~until:(fun () -> Hashtbl.mem answers n);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let rec await_exit () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then die "server did not exit after shutdown";
        Unix.sleepf 0.05;
        await_exit ()
    | _, st -> exited := Some st
  in
  await_exit ();
  (match !exited with
  | Some (Unix.WEXITED 0) -> ()
  | Some st -> die "server %s after shutdown" (status_string st)
  | None -> ());
  for id = 0 to n do
    match Hashtbl.find_opt answers id with
    | Some 1 -> ()
    | Some k -> die "request %d answered %d times" id k
    | None -> die "request %d never answered" id
  done;
  if Hashtbl.length answers <> n + 1 then
    die "%d distinct response ids for %d requests" (Hashtbl.length answers) (n + 1);
  if !shed = 0 then die "no request was shed: the overloaded path did not run";
  if !served <= 1 then die "no synthesis request was served";
  rm_rf dir;
  Printf.printf "serve_stress: OK (%d requests in %.1f s: %d served, %d shed)\n" n burst_s
    (!served - 1) !shed
