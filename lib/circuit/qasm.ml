(** OpenQASM 2.0-style rendering of circuits (output only; useful for
    inspecting benchmark circuits and for interop with other tools). *)

(* The primitive behind [Printf]'s ["%.17g"], called directly: the same
   bytes without interpreting a format per angle. *)
external format_float : string -> float -> string = "caml_format_float"

let add_angle buf a = Buffer.add_string buf (format_float "%.17g" a)

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n = if n >= 0 then add_digits buf n else Buffer.add_string buf (string_of_int n)

let add_rotation buf name a =
  Buffer.add_string buf name;
  add_angle buf a;
  Buffer.add_char buf ')'

(* The one renderer: [instr_to_string], [to_string] and [write_instr]
   all print through it.  Gate names are constant strings and qubits
   are formatted by hand, so printing a gate runs no [Printf]. *)
let add_instr buf (i : Circuit.instr) =
  (match i.Circuit.gate with
  | Qgate.Rx a -> add_rotation buf "rx(" a
  | Qgate.Ry a -> add_rotation buf "ry(" a
  | Qgate.Rz a -> add_rotation buf "rz(" a
  | Qgate.U3 (a, b, c) ->
      Buffer.add_string buf "u3(";
      add_angle buf a;
      Buffer.add_char buf ',';
      add_angle buf b;
      add_rotation buf "," c
  | g -> Buffer.add_string buf (Qgate.to_string g));
  let qs = i.Circuit.qubits in
  for k = 0 to Array.length qs - 1 do
    Buffer.add_string buf (if k = 0 then " q[" else ",q[");
    add_int buf qs.(k);
    Buffer.add_char buf ']'
  done;
  Buffer.add_char buf ';'

let add_line buf i =
  add_instr buf i;
  Buffer.add_char buf '\n'

let add_header buf n_qubits =
  Buffer.add_string buf "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[";
  add_int buf n_qubits;
  Buffer.add_string buf "];\n"

let instr_to_string i =
  let buf = Buffer.create 32 in
  add_instr buf i;
  Buffer.contents buf

let to_string (c : Circuit.t) =
  let buf = Buffer.create 1024 in
  add_header buf c.Circuit.n_qubits;
  List.iter (add_line buf) c.Circuit.instrs;
  Buffer.contents buf

(* Streamed output renders each line into a per-domain scratch buffer
   and hands it to the channel in one write. *)
let scratch = Domain.DLS.new_key (fun () -> Buffer.create 64)

let write_with oc add x =
  let buf = Domain.DLS.get scratch in
  Buffer.clear buf;
  add buf x;
  Buffer.output_buffer oc buf

let write_header oc n_qubits = write_with oc add_header n_qubits
let write_instr oc i = write_with oc add_line i
