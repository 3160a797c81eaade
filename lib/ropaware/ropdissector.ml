(* ROPDissector-style static chain analysis (§III-B2).

   Given the image and the address of a chain, walks the chain slots
   abstractly: slot values that point into executable sections are decoded
   as gadgets; a small data-flow domain tracks which registers hold
   chain-popped constants so that the variable-RSP-addend branch encoding
   (pop L; cmov; add rsp, L) can be recognized and *flipped* — exploring
   both the zero and the L displacement.  Produces a ROP CFG over chain
   offsets.

   P2 makes the displacement at a block entry depend on program values the
   static analysis cannot know (abstract Top), so flipped paths stop dead.
   Gadget confusion defeats the complementary "gadget guessing" scan by
   making every stride look like a plausible gadget address while the true
   items sit at unaligned offsets (§V-D, §VII-A2). *)

open X86.Isa

type absval =
  | A_const of int64           (* known value *)
  | A_popped of int64          (* immediate popped from the chain *)
  | A_branch of int64          (* cmov-selected: either 0 or this addend *)
  | A_top

type config = {
  max_blocks : int;
  max_gadget_instrs : int;
}

let default_config = { max_blocks = 4096; max_gadget_instrs = 16 }

type result = {
  blocks : (int64, unit) Hashtbl.t;    (* chain offsets of discovered blocks *)
  branches : int;                      (* branch points recognized & flipped *)
  unresolved : int;                    (* RSP updates with unknown addends *)
  gadgets_seen : (int64, unit) Hashtbl.t;
}

let in_text img a =
  match Image.find_section img ".text" with
  | Some s ->
    Int64.compare s.Image.sec_addr a <= 0
    && Int64.compare a (Image.section_end s) < 0
  | None -> false

(* decode the gadget at [a]: instructions up to ret / jmp-reg *)
let decode_gadget ~config img a =
  let text = Image.section_exn img ".text" in
  let buf = text.Image.sec_data in
  let off0 = Int64.to_int (Int64.sub a text.Image.sec_addr) in
  let rec go off acc n =
    if n > config.max_gadget_instrs then None
    else
      match X86.Decode.decode buf off with
      | None -> None
      | Some (Ret, _) -> Some (List.rev acc, `Ret)
      | Some (Jmp (J_op _), _) -> Some (List.rev acc, `Jop)
      | Some ((Jmp _ | Jcc _ | Call _ | Hlt), _) -> None
      | Some (i, len) -> go (off + len) (i :: acc) (n + 1)
  in
  if off0 < 0 || off0 >= Bytes.length buf then None else go off0 [] 0

(* --- abstract walk ------------------------------------------------------------ *)

type walk_state = {
  mutable regs : absval array;
}

let aget st r = st.regs.(reg_index r)
let aset st r v = st.regs.(reg_index r) <- v

let analyze ?(config = default_config) (img : Image.t) ~chain_addr ~chain_len =
  Obs.Trace.with_span "ropdissector.analyze" @@ fun () ->
  let blocks = Hashtbl.create 64 in
  let gadgets_seen = Hashtbl.create 64 in
  let branches = ref 0 in
  let unresolved = ref 0 in
  let worklist = Queue.create () in
  Queue.add 0L worklist;
  let in_chain off = Int64.compare off 0L >= 0 && Int64.compare off (Int64.of_int chain_len) < 0 in
  while not (Queue.is_empty worklist)
        && Hashtbl.length blocks < config.max_blocks do
    let entry = Queue.pop worklist in
    if not (Hashtbl.mem blocks entry) && in_chain entry then begin
      Hashtbl.replace blocks entry ();
      (* walk forward from this block entry *)
      let st = { regs = Array.make 16 A_top } in
      let off = ref entry in
      let continue_ = ref true in
      while !continue_ do
        match Image.read_u64 img (Int64.add chain_addr !off) with
        | None -> continue_ := false
        | Some slot ->
          if not (in_text img slot) then continue_ := false
          else begin
            match decode_gadget ~config img slot with
            | None -> continue_ := false
            | Some (body, ending) ->
              Hashtbl.replace gadgets_seen slot ();
              off := Int64.add !off 8L;
              (* abstract transfer *)
              let rsp_jump = ref None in
              List.iter
                (fun i ->
                   match i with
                   | Pop (Reg r) ->
                     (match Image.read_u64 img (Int64.add chain_addr !off) with
                      | Some v when in_chain !off ->
                        aset st r (A_popped v)
                      | Some _ | None -> aset st r A_top);
                     off := Int64.add !off 8L
                   | Mov (W64, Reg r, Imm v) -> aset st r (A_const v)
                   | Mov (W64, Reg rd, Reg rs) -> aset st rd (aget st rs)
                   | Cmov (_, rd, Reg rs) ->
                     (* branch encoding: rd becomes 0-or-its-value when the
                        other side is a known zero *)
                     (match aget st rd, aget st rs with
                      | A_popped d, A_const 0L -> aset st rd (A_branch d)
                      | A_const 0L, A_popped d -> aset st rd (A_branch d)
                      | _, _ -> aset st rd A_top)
                   | Alu (Add, W64, Reg RSP, Reg r) ->
                     rsp_jump := Some (aget st r)
                   | Alu (Add, W64, Reg RSP, Imm v) ->
                     (* unaligned skew updates also land here *)
                     off := Int64.add !off v
                   | Alu (Add, W64, Reg rd, Reg rs) ->
                     (match aget st rd, aget st rs with
                      | A_popped a, A_const b | A_const b, A_popped a ->
                        aset st rd (A_popped (Int64.add a b))
                      | A_const a, A_const b -> aset st rd (A_const (Int64.add a b))
                      | _, _ -> aset st rd A_top)
                   | Alu (_, _, Reg rd, _) -> aset st rd A_top
                   | Imul2 (_, rd, _) -> aset st rd A_top
                   | Unary (_, _, Reg rd) -> aset st rd A_top
                   | Movzx (_, _, rd, _) | Movsx (_, _, rd, _) -> aset st rd A_top
                   | Lea (rd, _) -> aset st rd A_top
                   | MulDiv _ ->
                     aset st RAX A_top;
                     aset st RDX A_top
                   | Shift (_, _, Reg rd, _) -> aset st rd A_top
                   | Setcc (_, Reg rd) -> aset st rd A_top
                   | Mov _ | Cmov _ | Alu _ | Unary _ | Shift _ | Setcc _
                   | Push _ | Pop _ | Xchg _ | Lahf | Sahf | Nop | Leave
                   | Hlt | Ret | Jmp _ | Jcc _ | Call _ -> ())
                body;
              (match ending with
               | `Jop ->
                 (* stack switch / tail call: block ends *)
                 continue_ := false
               | `Ret ->
                 (match !rsp_jump with
                  | None -> ()     (* plain gadget: fall through to next slot *)
                  | Some (A_const d) | Some (A_popped d) ->
                    (* unconditional transfer *)
                    Queue.add (Int64.add !off d) worklist;
                    continue_ := false
                  | Some (A_branch d) ->
                    (* recognized branch: flip it — both paths *)
                    incr branches;
                    Queue.add !off worklist;
                    Queue.add (Int64.add !off d) worklist;
                    continue_ := false
                  | Some A_top ->
                    incr unresolved;
                    continue_ := false))
          end
      done
    end
  done;
  if Obs.Metrics.enabled () then begin
    let c = Obs.Metrics.count in
    c "ropdissector.analyses" 1;
    c "ropdissector.blocks" (Hashtbl.length blocks);
    c "ropdissector.branches" !branches;
    c "ropdissector.unresolved" !unresolved;
    c "ropdissector.gadgets_seen" (Hashtbl.length gadgets_seen)
  end;
  { blocks; branches = !branches; unresolved = !unresolved; gadgets_seen }

(* --- gadget guessing (speculative scan, §V-D) ---------------------------------- *)

type guess_result = {
  candidates : int;            (* plausible gadget addresses found *)
  candidate_offsets : int list;
}

(* Scan the chain region: every [stride]-aligned 8-byte window whose value
   points at a decodable gadget is a candidate block start.  With gadget
   confusion on, disguised immediates and unaligned strides make this
   explode (§VII-A2). *)
let gadget_guess ?(config = default_config) ?(stride = 1) (img : Image.t)
    ~chain_addr ~chain_len =
  Obs.Trace.with_span "ropdissector.gadget_guess" @@ fun () ->
  let offs = ref [] in
  let count = ref 0 in
  let off = ref 0 in
  while !off + 8 <= chain_len do
    (match Image.read_u64 img (Int64.add chain_addr (Int64.of_int !off)) with
     | Some v when in_text img v ->
       (match decode_gadget ~config img v with
        | Some _ ->
          incr count;
          offs := !off :: !offs
        | None -> ())
     | Some _ | None -> ());
    off := !off + stride
  done;
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.count "ropdissector.guesses" 1;
    Obs.Metrics.count "ropdissector.guess_candidates" !count
  end;
  { candidates = !count; candidate_offsets = List.rev !offs }
