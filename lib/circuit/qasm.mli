(** OpenQASM 2.0 rendering (output side; {!Qasm_reader} parses).

    Every entry point prints through one renderer, which formats gate
    names and qubit operands by hand ([%.17g] for rotation angles), so
    their outputs are byte-identical by construction. *)

val instr_to_string : Circuit.instr -> string
val to_string : Circuit.t -> string

val write_header : out_channel -> int -> unit
(** Write the OPENQASM 2.0 preamble and [qreg q[n];] declaration.
    [to_string] is byte-identical by construction to [write_header]
    followed by [write_instr] per instruction, so streamed output can
    be compared bytewise. *)

val write_instr : out_channel -> Circuit.instr -> unit
(** Write one instruction line: [instr_to_string] and a newline
    (gate-by-gate streaming output). *)
