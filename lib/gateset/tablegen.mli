(** Offline table generation and the [tgates-table/v1] on-disk format.

    [generate] enumerates a gate set's operators up to a T-depth
    (Matsumoto–Amano normal forms for full Clifford+T, generic
    canonical-unitary-deduplicated closure otherwise), verifying the
    count against the descriptor's closed form when known.  [save]
    persists the result as CRC-framed records
    ([TGTB <len> <crc32-hex>\n<payload>\n], like [lib/store] segments);
    [load] re-derives each entry's exact unitary from its word and
    fills the table's planes through [Ma_table.add], the builder
    [Ma_table.build] uses, so a loaded Clifford+T table equals
    [Ma_table.build] plane for plane.  Corruption
    (bad CRC, truncation, count/schema mismatch) is a structured
    [Error], never a partial table. *)

val schema : string
(** ["tgates-table/v1"]. *)

val generate : Gateset.t -> max_t:int -> (Ma_table.t, string) result
(** [Error] when the enumerated operator count contradicts the
    descriptor's closed form. *)

val save : path:string -> gate_set:string -> Ma_table.t -> (unit, string) result
(** Write the table atomically (tmp+rename). *)

val load : string -> (string * Ma_table.t, string) result
(** [(gate_set, table)] from a [tgates-table/v1] file. *)

val load_and_provide : string -> (string * Ma_table.t, string) result
(** [load], then register the table with [Ma_table.provide] under the
    file's gate-set name so the synthesis stack can use it. *)

(**/**)

val frame : string -> string
(** Exposed for corruption tests. *)
