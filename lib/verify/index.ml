(* Lookup tables derived from a rewrite audit, shared by ropcheck (Check)
   and roplint (Stackdisc, Transval): a chain index per rewritten function
   (slots, skews and labels by key, plus the branch-target list) and a
   gadget table per audit (each gadget's instructions and Summary.t,
   abstracted once instead of per use).  They are recomputed from the
   audit, never stored in it, so whatever caches or serialises an audit is
   unaffected. *)

module A = Ropc.Audit

type chain = {
  slot8 : (int, Ropc.Chain.slot) Hashtbl.t;
      (* 8-byte data/gadget slots by chain offset; the zero-width markers
         that share offsets with them are left out *)
  skew : (int, int) Hashtbl.t;          (* skew gap width by chain offset *)
  labels : (string, int) Hashtbl.t;
      (* label/anchor -> chain offset, keeping the first binding of a
         duplicated name as List.assoc_opt on f_labels does *)
  targets : int list;
      (* offsets every displacement slot, then every jump-table entry, can
         deliver RSP to, in layout/table order (duplicates kept) *)
}

let chain (f : A.func) : chain =
  let slot8 = Hashtbl.create (Array.length f.A.f_layout)
  and skew = Hashtbl.create 8
  and labels = Hashtbl.create (List.length f.A.f_labels) in
  List.iter
    (fun (name, off) ->
       if not (Hashtbl.mem labels name) then Hashtbl.add labels name off)
    f.A.f_labels;
  let label name = Hashtbl.find_opt labels name in
  let targets = ref [] in
  Array.iter
    (fun (off, s) ->
       match s with
       | Ropc.Chain.S_disp { target; _ } ->
         Hashtbl.replace slot8 off s;
         Option.iter (fun t -> targets := t :: !targets) (label target)
       | Ropc.Chain.S_gadget _ | Ropc.Chain.S_imm _ | Ropc.Chain.S_opaque _
       | Ropc.Chain.S_opaque_dispatch _ ->
         Hashtbl.replace slot8 off s
       | Ropc.Chain.S_skew eta -> Hashtbl.replace skew off eta
       | Ropc.Chain.S_label _ | Ropc.Chain.S_anchor _ -> ())
    f.A.f_layout;
  List.iter
    (fun (_, _, ts) ->
       List.iter
         (fun t -> Option.iter (fun o -> targets := o :: !targets) (label t))
         ts)
    f.A.f_tables;
  { slot8; skew; labels; targets = List.rev !targets }

let slot8 c off = Hashtbl.find_opt c.slot8 off
let label c name = Hashtbl.find_opt c.labels name

type gadget = {
  g_rec : A.gadget_rec;
  g_instrs : X86.Isa.instr list;        (* body plus its ending *)
  g_summary : Summary.t;
}

type gadgets = {
  all : gadget list;                    (* one per claim, in audit order *)
  by_addr : (int64, gadget) Hashtbl.t;  (* a repeated address keeps the last *)
}

let gadgets (audit : A.t) : gadgets =
  let all =
    List.map
      (fun (g : A.gadget_rec) ->
         let instrs = Gadget.instrs g.A.g_gadget in
         { g_rec = g; g_instrs = instrs; g_summary = Summary.of_instrs instrs })
      audit.A.a_gadgets
  in
  let by_addr = Hashtbl.create (List.length all) in
  List.iter (fun g -> Hashtbl.replace by_addr g.g_rec.A.g_addr g) all;
  { all; by_addr }

let gadget t a = Hashtbl.find_opt t.by_addr a
