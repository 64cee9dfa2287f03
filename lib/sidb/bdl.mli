(** Binary-dot logic (BDL) on SiDBs [18].

    A bit is encoded in a {e pair} of SiDBs sharing one excess electron:
    charge on the pair's [one] site means logic 1, charge on the [zero]
    site logic 0.  Gate inputs are set through {e perturbers} — fixed
    SiDBs that emulate the Coulombic pressure of an upstream BDL wire.
    Following the paper's refinement of Huff et al.'s methodology, a
    perturber is present for {e both} logic states, at a close position
    for 1 and a farther one for 0 (Sec. 4.1). *)

type pair = { zero : Lattice.site; one : Lattice.site }

type input_driver = {
  near : Lattice.site list;  (** Perturber sites emulating logic 1. *)
  far : Lattice.site list;  (** Perturber sites emulating logic 0. *)
}

(** A simulatable logic structure: a Bestagon tile's dot-level content. *)
type structure = {
  name : string;
  inputs : input_driver array;
  outputs : pair array;
  fixed : Lattice.site list;
      (** All remaining SiDBs: input/output wire pairs, canvas dots, and
          output perturbers. *)
}

val sites_for : structure -> bool array -> Lattice.site array
(** All SiDBs of the structure under an input assignment (selects near or
    far perturbers per input).
    @raise Invalid_argument on arity mismatch. *)

val read_pair :
  Lattice.site array -> bool array -> pair -> bool option
(** Logic value of a BDL pair in an occupation over the given site array:
    [Some] when exactly one of the two sites is charged, [None]
    otherwise. *)

type engine =
  | Exhaustive
      (** {!Ground_state.exhaustive} (ExGS); up to 24 SiDBs.  The
          reference the tests compare the other engines against. *)
  | Pruned
      (** {!Ground_state.pruned}: branch and bound plus population-stability
          subtree pruning; exhaustive's results, fastest on gate-sized
          systems.  Default for {!check}. *)
  | Quicksim of Ground_state.quicksim_config
      (** {!Ground_state.quicksim}: sampled population-dynamics heuristic.
          Not exact — energies are upper bounds — but deterministic and
          the only engine that scales to whole multi-gate layouts. *)

val engine_name : engine -> string
val engine_exact : engine -> bool
(** Whether the engine guarantees the exact ground state. *)

val engine_of_string : string -> (engine, string) result
(** Parses [exhaustive]/[pruned]/[quicksim] (plus aliases [exgs] and
    [quickexact]); [quicksim] gets {!Ground_state.default_quicksim}. *)

val set_default_engine : engine -> unit
(** Process-wide default (e.g. from a [--engine] CLI flag); takes
    precedence over the environment. *)

val env_engine : unit -> engine option
(** The FICTIONETTE_SIM_ENGINE environment variable, when set to a value
    {!engine_of_string} accepts. *)

val configured_engine : unit -> engine option
(** {!set_default_engine}'s value if any, else {!env_engine} — [None]
    when the user expressed no preference anywhere. *)

val default_engine : unit -> engine
(** {!configured_engine}, falling back to exact [Pruned]: heuristics
    must be opted into wherever exact engines are feasible. *)

val solve : ?max_states:int -> engine -> Charge_system.t -> Ground_state.result
(** Run one ground-state computation with the given engine — the single
    place an engine is mapped to its solver.  [max_states] caps the
    degenerate state list of the exact engines (default 64); quicksim
    keeps the cap in its config. *)

type row_result = {
  assignment : bool array;
  expected : bool array;
  observed : bool option array list;  (** One entry per degenerate ground state. *)
  ground_energy : float;
  ok : bool;  (** All ground states read back the expected outputs. *)
}

type report = { structure : structure; rows : row_result list; functional : bool }

val check :
  ?engine:engine ->
  ?model:Model.t ->
  ?v_ext_at:(Lattice.site -> float) ->
  structure ->
  spec:(bool array -> bool array) ->
  report
(** Exercise the structure on all input combinations against the
    specification (e.g. [fun i -> [| i.(0) <> i.(1) |]] for XOR);
    functional iff every row is [ok].  [engine] defaults to [Pruned]
    (not {!default_engine}: gate validation stays exact whatever the
    process-wide preference).  [v_ext_at] adds a local external
    potential (eV) per site — e.g. from fixed charged defects
    ({!Defects}) or clocking electrodes. *)

val operational : report -> bool

val logic_margin :
  ?model:Model.t ->
  ?window:float ->
  structure ->
  spec:(bool array -> bool array) ->
  float
(** Worst-case energetic separation between the ground state and the
    lowest state that reads back a {e wrong} (or unpolarized) output, in
    eV over all input rows.  Positive margins mean thermal robustness
    (cf. {!Temperature}); 0 when some ground state itself mis-reads.
    States are enumerated within [window] (default 0.25 eV) of the ground
    energy; if no wrong state exists inside the window, the window value
    is returned as a lower bound. *)
