(* Rewrite audit artifact: everything the static verifier (lib/verify) needs
   to re-check a rewritten image without re-running the rewriter.

   The rewriter records, as a side effect of crafting, (a) every gadget the
   pool knows about with its diversification-prefix provenance, (b) the full
   slot layout of each materialized chain, and (c) one [point] per lowered
   roplet carrying the liveness facts the lowering relied on.  The verifier
   treats this as a set of *claims* and independently validates them against
   the image bytes: decoded gadget bodies must match the recorded ones, the
   chain walk must line up ret-to-ret, and recorded live sets must not
   intersect what the slots' gadgets actually clobber. *)

module R = Analysis.Regset

type gadget_rec = {
  g_addr : int64;
  g_gadget : Gadget.t;
  g_prefix : X86.Isa.reg list;  (* regs the diversification prefix writes *)
  g_found : bool;               (* scanned from untouched code vs synthesized *)
}

(* One lowered program point: a translated instruction, a terminator group,
   or a P2 trampoline.  [p_slots] are the chain slots (offset within the
   chain, symbolic slot) the lowering emitted for it, in stack order. *)
type point = {
  p_addr : int64;               (* original instruction address (0 if none) *)
  p_desc : string;
  p_live : R.t;                 (* registers that must survive the roplet *)
  p_flags_live : bool;          (* must the status flags survive? *)
  p_defs : R.t;                 (* what the roplet intends to define *)
  p_borrowed : R.t;             (* spilled-and-restored scratch borrows *)
  p_slots : (int * Chain.slot) array;
  p_hidden : (int * int) option;
      (* instruction hiding: chain-offset range [lo, hi) of the real
         roplet smuggled inside this point's P3 predicate body.  Roplint's
         Transval pass validates the hidden sub-region symbolically even
         though the surrounding predicate is shielded. *)
}

type func = {
  f_name : string;
  f_sym_addr : int64;           (* original body, now holding the pivot stub *)
  f_sym_size : int;
  f_stub_len : int;
  f_chain_base : int64;         (* placement of the chain in .rop *)
  f_chain_len : int;
  f_layout : (int * Chain.slot) array;   (* every slot, in push order *)
  f_labels : (string * int) list;        (* label/anchor -> chain offset *)
  f_points : point list;
  (* jump tables: table address, anchor label, per-entry target label *)
  f_tables : (int64 * string * string list) list;
  (* P1 opaque array: base address, parameters, per-class residues *)
  f_p1 : (int64 * Config.p1_params * int array) option;
}

type t = {
  a_ss_addr : int64;            (* stack-switching array *)
  a_funcret : int64;            (* shared function-return gadget *)
  a_pool_lo : int64;            (* synthesized gadgets live in [lo, hi) *)
  a_pool_hi : int64;
  a_gadgets : gadget_rec list;
  a_funcs : func list;          (* successfully rewritten functions only *)
}
