(* Open-loop load over one connection: request i is due at
   t0 + i/rate whatever happened to earlier requests, so a stall in the
   server shows up as latency on every request queued behind it.
   Latency is measured from the due time, not from the actual send,
   and how late the generator itself ran is reported separately. *)

let due ~t0 ~rate i = t0 +. (float_of_int i /. rate)

type lateness = { sends : int; max_ms : float; p99_ms : float option }

(* How far behind schedule each send went out. *)
let lateness ~dues ~sents =
  let late = Array.mapi (fun i s -> Float.max 0.0 (s -. dues.(i)) *. 1e3) sents in
  {
    sends = Array.length late;
    max_ms = Array.fold_left Float.max 0.0 late;
    p99_ms = Pb_stats.quantile 0.99 late;
  }

type outcome = Served | Shed | Failed

type phase = {
  rate : float;  (** offered requests per second *)
  achieved_rate : float;  (** requests sent / span of the send schedule actually kept *)
  lat_ms : float array;  (** per request, from its due time; infinity when not served *)
  served : int;
  shed : int;
  failed : int;  (** error responses and requests never answered *)
  late : lateness;
  backlog_at_end : int;  (** requests unanswered when the last one was sent *)
}

type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; buf = Buffer.create 65536; chunk = Bytes.create 65536 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let s = line ^ "\n" in
  let rec go off =
    if off < String.length s then
      match Unix.write_substring c.fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Wait up to [timeout] seconds for data; hand every complete line
   that arrived to [on_line].  Raises End_of_file when the peer
   closed. *)
let poll c ~timeout ~on_line =
  match Unix.select [ c.fd ] [] [] (Float.max 0.0 timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | [], _, _ -> ()
  | _ ->
      let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
      if n = 0 then raise End_of_file;
      let rec split start =
        match Bytes.index_from_opt c.chunk start '\n' with
        | Some i when i < n ->
            Buffer.add_subbytes c.buf c.chunk start (i - start);
            let line = Buffer.contents c.buf in
            Buffer.clear c.buf;
            on_line line;
            split (i + 1)
        | _ -> Buffer.add_subbytes c.buf c.chunk start (n - start)
      in
      split 0

let response_id line =
  match Obs.Json.parse line with
  | Ok j -> (
      match Obs.Json.member "id" j with Some (Obs.Json.Num f) -> Some (int_of_float f, j) | _ -> None)
  | Error _ -> None

(* Offer [rate] requests/s for [duration] s.  [request id] renders
   request [id]; [judge id response] classifies its answer.  After the
   last send, answers are awaited for up to [drain_s]. *)
let run c ~clock ~rate ~duration ~first_id ~request ~judge ~drain_s =
  let n = max 1 (int_of_float (rate *. duration)) in
  let dues = Array.make n 0.0 and sents = Array.make n 0.0 in
  let lat = Array.make n infinity in
  let outcome = Array.make n None in
  let outstanding = ref 0 and next = ref 0 and backlog = ref 0 in
  let on_line line =
    match response_id line with
    | Some (id, j) when id >= first_id && id < first_id + n && outcome.(id - first_id) = None ->
        let k = id - first_id in
        let o = judge id j in
        outcome.(k) <- Some o;
        decr outstanding;
        if o = Served then lat.(k) <- (clock () -. dues.(k)) *. 1e3
    | _ -> ()
  in
  let t0 = clock () in
  for i = 0 to n - 1 do
    dues.(i) <- due ~t0 ~rate i
  done;
  let deadline = ref infinity in
  let rec loop () =
    let now = clock () in
    if !next < n && now >= dues.(!next) then begin
      sents.(!next) <- now;
      send c (request (first_id + !next));
      incr outstanding;
      incr next;
      if !next = n then begin
        backlog := !outstanding;
        deadline := clock () +. drain_s
      end;
      loop ()
    end
    else if !next = n && (!outstanding = 0 || now >= !deadline) then ()
    else begin
      let until = if !next < n then dues.(!next) else !deadline in
      poll c ~timeout:(until -. now) ~on_line;
      loop ()
    end
  in
  loop ();
  let count o = Array.fold_left (fun k x -> if x = Some o then k + 1 else k) 0 outcome in
  let span = sents.(n - 1) -. sents.(0) in
  {
    rate;
    achieved_rate = (if n > 1 && span > 0.0 then float_of_int (n - 1) /. span else rate);
    lat_ms = lat;
    served = count Served;
    shed = count Shed;
    failed = n - count Served - count Shed;
    late = lateness ~dues ~sents;
    backlog_at_end = !backlog;
  }
