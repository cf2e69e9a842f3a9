(* Parsers for the report lines compile_cli prints on stdout.  The
   benchmark reads the compiler's own counts from here and checks them
   against a recount of the written QASM. *)

type stream_report = {
  gates_in : int;
  gates_out : int;
  t : int;
  cliffords : int;
  rotations : int;
  unique : int;
  dedup_hits : int;
  degraded : int;
  gates_per_sec : float;  (** the child's own figure; the benchmark times the child itself *)
  peak_heap_words : int;
}

type compile_report = {
  c_gates : int;
  c_t : int;
  c_cliffords : int;
  synth_err : float;  (** summed per-rotation distance, printed to 4 decimals *)
  c_rotations : int;  (** rotations sent to synthesis *)
  c_degraded : int;
}

let lines s = String.split_on_char '\n' s

(* The first line that [f] parses, or an error naming [what]. *)
let find what f text =
  let rec go = function
    | [] -> Error (Printf.sprintf "no %S line in the compiler report" what)
    | l :: rest -> (
        match f l with
        | Some v -> Ok v
        | None -> go rest
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> go rest)
  in
  go (lines text)

let scan l fmt k = Some (Scanf.sscanf l fmt k)
let ( let* ) = Result.bind

let degraded_count text =
  match find "degraded" (fun l -> scan l "degraded : %d rotations" Fun.id) text with
  | Ok n -> n
  | Error _ -> 0

let stream_report text =
  let* gates_in, gates_out, t, cliffords =
    find "output" (fun l ->
        scan l "output : %d gates in -> %d gates out, T=%d, Cliffords=%d%!" (fun a b c d ->
            (a, b, c, d)))
      text
  in
  let* rotations, unique, dedup_hits, degraded =
    find "synth" (fun l ->
        scan l "synth : %d rotations (%d unique, %d dedup hits), err %_f, %d degraded%!"
          (fun a b c d -> (a, b, c, d)))
      text
  in
  let* gates_per_sec = find "gates/sec" (fun l -> scan l "gates/sec: %f%!" Fun.id) text in
  let* peak_heap_words = find "peak heap" (fun l -> scan l "peak heap: %d words%!" Fun.id) text in
  Ok
    {
      gates_in;
      gates_out;
      t;
      cliffords;
      rotations;
      unique;
      dedup_hits;
      degraded;
      gates_per_sec;
      peak_heap_words;
    }

let compile_report text =
  let* c_gates, c_t, c_cliffords =
    find "output" (fun l ->
        scan l "output : %d gates, T=%d, Tdepth=%_d, Cliffords=%d%!" (fun a b c -> (a, b, c)))
      text
  in
  let* synth_err, c_rotations =
    find "synth err" (fun l -> scan l "synth err: %f summed over %d rotations%!" (fun a b -> (a, b)))
      text
  in
  Ok { c_gates; c_t; c_cliffords; synth_err; c_rotations; c_degraded = degraded_count text }

(* The OCaml runtime's exit report (OCAMLRUNPARAM=v=0x400, on stderr):
   the major heap's high-water mark in words. *)
let top_heap_words text = find "top_heap_words" (fun l -> scan l "top_heap_words: %d%!" Fun.id) text
