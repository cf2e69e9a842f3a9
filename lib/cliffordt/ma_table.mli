(** Step 0 of TRASYN: the table of all Clifford+T operators up to global
    phase with at most a given T count, enumerated as Matsumoto–Amano
    normal forms [ε|T](HT|SHT)*·C — provably unique, so the enumeration
    is linear in the output count 24·(3·2^#T − 2) and every sequence is
    T-optimal by construction.  Doubles as step 3's lookup table of
    cheaper equivalents.

    {1 Planes}

    A table is a set of flat planes indexed by entry number
    [i ∈ [0, count)], with no per-entry record:
    - [keys]: {!Exact_u.key_width} ints per entry, the canonical key
      ({!Exact_u.canonical_key}) of its operator, at [i·key_width];
    - [words], [word_start]: entry [i]'s word is the bytes
      [words[word_start.(i), word_start.(i+1))], one {!Ctgate.to_char}
      per gate, in matrix order;
    - [tcounts], [ccounts]: its T count and its non-Pauli Clifford
      count;
    - [re], [im]: its 2×2 matrix, row-major, at [4i .. 4i+3], bit for
      bit {!Exact_u.to_mat2} of the exact operator;
    - [index]: open addressing over [keys] (a power-of-two slot array,
      load ≤ 1/2, linear probing from {!Exact_u.hash_key}); a slot
      holds an entry number or −1.  For each operator it holds the
      cheapest entry: fewer T, then fewer Cliffords, then the shorter
      word, the earlier entry on a full tie;
    - [offsets]: [offsets.(k)] is the first entry with T count ≥ k, for
      [k = 0 .. max_t + 1].

    Invariants: entries are sorted by T count, all ≤ [max_t];
    [count = offsets.(max_t + 1)].  The planes may extend past
    [count]: a {!truncate}d table shares its parent's planes and index,
    and {!find} ignores any answer at or past [count].  The arrays are
    shared between tables and domains and must never be written. *)

type t = private {
  max_t : int;
  count : int;  (** entries of this table; the planes may be longer *)
  keys : int array;
  word_start : int array;
  words : Bytes.t;
  tcounts : int array;
  ccounts : int array;
  re : float array;
  im : float array;
  index : int array;
  offsets : int array;
}

val theoretical_count : int -> int
(** 24·(3·2^m − 2), verified against the enumeration in the tests. *)

val build : int -> t

val get : int -> t
(** Memoized [build].  When a deeper table is already cached, the result
    is its {!truncate}, which equals [build] plane for plane. *)

val truncate : t -> int -> t
(** [truncate t m] is the table restricted to entries with tcount ≤ [m]
    ([t] itself when [m ≥ t.max_t]): the same planes and index with a
    smaller [count], built in O(m). *)

(** {1 Entries} *)

val size : t -> int
(** [count]. *)

val word : t -> int -> Ctgate.t list
val word_string : t -> int -> string
(** The word as {!Ctgate.seq_to_string} writes it. *)

val word_length : t -> int -> int
val tcount : t -> int -> int

val ccount : t -> int -> int
(** Non-Pauli Cliffords in the word. *)

val mat : t -> int -> Mat2.t
(** The accessors raise [Invalid_argument] on an index outside
    [[0, count)]. *)

val find : t -> Exact_u.t -> int option
(** The cheapest entry equal to the operator up to global phase. *)

val equal : t -> t -> bool
(** Same depth, same offsets and every plane equal over the first
    [count] entries (floats compared by their bits).  Equal tables
    answer every {!find} alike. *)

(** {1 Filling planes}

    The one way to make a table: [build], [Tablegen]'s generic closure
    and its on-disk loader all add entries in table order and
    [finish]. *)

type builder

val builder : max_t:int -> int -> builder
(** An empty table of depth [max_t] with room for the given number of
    entries; it grows past them. *)

val add : builder -> string -> tcount:int -> ccount:int -> Exact_u.t -> unit
(** Append an entry: its word (as {!word_string}), its counts and its
    exact operator, from which the key and the float matrix are
    derived.  @raise Invalid_argument when [tcount] exceeds [max_t] or
    is below the previous entry's. *)

val mem : builder -> Exact_u.t -> bool
(** Whether an entry added so far equals the operator up to phase. *)

val finish : builder -> t
(** The table; the builder must not be used afterwards. *)

(** {1 Gate-set-keyed registry}

    Tables for gate sets other than the built-in Clifford+T enumeration
    are generated offline ([Tablegen]) and registered here by name; the
    synthesis stack then asks for the table of the active gate set
    without knowing its origin. *)

val provide : gate_set:string -> t -> unit
(** Register the table as the one for [gate_set].  A deeper table wins:
    providing a shallower table than one already registered is a no-op.
    Thread-safe. *)

val get_for : gate_set:string -> int -> t
(** The table for [gate_set] at depth [max_t].  A provided deeper table
    is truncated; ["cliffordt"] falls back to the in-process [get] when
    nothing was provided.  @raise Failure with a structured message
    when no table for that gate set is available or the provided one is
    too shallow. *)

val provided_sets : unit -> (string * int) list
(** Registered (gate set, max_t) pairs, sorted — for diagnostics. *)
