(* Stealth lint: static detectability scoring of the rewritten image.

   Scores approximate what the pattern-matching ROP detectors the paper
   defends against (ROPdissector-style chain scanners, gadget-signature
   sweeps) can see *without running the program*:

   - slot_frac      fraction of a chain's 8-byte slots holding a gadget
                    address — a dense run of code pointers into one
                    executable region is the classic chain signature;
   - reuse          1 - normalized Shannon entropy of the chain's gadget
                    usage: hammering three gadgets is far more
                    recognizable than spreading references over many;
   - clustering     1 - (referenced address span / pool size): chains
                    whose pointers cluster in a short pool prefix give a
                    scanner a tight candidate window;
   - ret_density    max 0xc3 count per 64-byte pool window (image-wide);
   - popret         pop;ret bigrams (0x58-0x5f then 0xc3) per KiB of pool.

   Each component is normalized to [0,1]; the weighted blend scales to a
   0-100 detectability score per function (higher = more recognizable).
   Thresholds are calibrated so today's corpus lands in info/warning
   territory; error is reserved for scores no shipped configuration
   produces, making any future error-severity stealth finding a CI-visible
   regression (see check.sh's @lint step). *)

module A = Ropc.Audit
module F = Verify.Finding

type func_score = {
  fs_name : string;
  fs_score : float;               (* 0..100 *)
  fs_slot_frac : float;
  fs_reuse : float;
  fs_clustering : float;
  fs_slots : int;                 (* 8-byte slots in the chain *)
}

type t = {
  sl_funcs : func_score list;
  sl_ret_density : float;         (* 0..1: max-window 0xc3 count / 8 *)
  sl_popret_per_kib : float;
  sl_findings : F.t list;
}

let log2 x = log x /. log 2.0

(* pool byte window signals over [lo, hi) of the rewritten image *)
let pool_signals (img : Image.t) ~lo ~hi =
  let len = Int64.to_int (Int64.sub hi lo) in
  if len <= 0 then (0.0, 0.0)
  else begin
    let pool = Image.read_window img lo len in
    let byte i = Char.code (Bytes.get pool i) in
    let max_window = ref 0 and rets = ref 0 and popret = ref 0 in
    let window = 64 in
    let in_window = ref 0 in
    for i = 0 to len - 1 do
      let b = byte i in
      if b = 0xC3 then begin
        incr rets;
        incr in_window
      end;
      if i >= window && byte (i - window) = 0xC3 then decr in_window;
      if !in_window > !max_window then max_window := !in_window;
      if i > 0 && b = 0xC3 then begin
        let p = byte (i - 1) in
        if p >= 0x58 && p <= 0x5F then incr popret
      end
    done;
    let ret_density = min 1.0 (float_of_int !max_window /. 8.0) in
    let popret_per_kib =
      float_of_int !popret /. (float_of_int len /. 1024.0)
    in
    (ret_density, popret_per_kib)
  end

let func_score ~pool_lo ~pool_hi ~ret_density ~popret_per_kib (f : A.func) =
  let slots = ref 0 and gadget_slots = ref 0 in
  let uses = Hashtbl.create 32 in
  let lo_ref = ref Int64.max_int and hi_ref = ref Int64.min_int in
  Array.iter
    (fun (_, s) ->
       match s with
       | Ropc.Chain.S_gadget a ->
         incr slots;
         incr gadget_slots;
         Hashtbl.replace uses a (1 + Option.value ~default:0 (Hashtbl.find_opt uses a));
         if Int64.compare a !lo_ref < 0 then lo_ref := a;
         if Int64.compare a !hi_ref > 0 then hi_ref := a
       | Ropc.Chain.S_opaque_dispatch { od_jop = a; _ } ->
         (* the slot's bytes are a pool pointer (the jmp-reg trampoline),
            so a scanner sees it exactly like a literal gadget slot *)
         incr slots;
         incr gadget_slots;
         Hashtbl.replace uses a (1 + Option.value ~default:0 (Hashtbl.find_opt uses a));
         if Int64.compare a !lo_ref < 0 then lo_ref := a;
         if Int64.compare a !hi_ref > 0 then hi_ref := a
       | Ropc.Chain.S_imm _ | Ropc.Chain.S_disp _
       | Ropc.Chain.S_opaque _ ->
         (* opaque slots store residuals, indistinguishable from data *)
         incr slots
       | Ropc.Chain.S_label _ | Ropc.Chain.S_anchor _ | Ropc.Chain.S_skew _ ->
         ())
    f.A.f_layout;
  let slot_frac =
    if !slots = 0 then 0.0
    else float_of_int !gadget_slots /. float_of_int !slots
  in
  let distinct = Hashtbl.length uses in
  let reuse =
    if distinct <= 1 then 1.0
    else begin
      let total = float_of_int !gadget_slots in
      let h =
        Hashtbl.fold
          (fun _ n acc ->
             let p = float_of_int n /. total in
             acc -. (p *. log2 p))
          uses 0.0
      in
      1.0 -. (h /. log2 (float_of_int distinct))
    end
  in
  let pool_size = Int64.to_float (Int64.sub pool_hi pool_lo) in
  let clustering =
    if distinct = 0 || pool_size <= 0.0 then 0.0
    else begin
      let span = Int64.to_float (Int64.sub !hi_ref !lo_ref) in
      max 0.0 (1.0 -. (span /. pool_size))
    end
  in
  let popret_sig = min 1.0 (popret_per_kib /. 32.0) in
  let score =
    100.0
    *. ((0.35 *. slot_frac) +. (0.20 *. reuse) +. (0.15 *. clustering)
        +. (0.20 *. ret_density) +. (0.10 *. popret_sig))
  in
  { fs_name = f.A.f_name; fs_score = score; fs_slot_frac = slot_frac;
    fs_reuse = reuse; fs_clustering = clustering; fs_slots = !slots }

(* Calibrated on the current corpus x Table I/II matrix: rewritten
   functions land in the low-30s..mid-40s (max observed 44.8), so >= 60 is
   a warning-worthy outlier and >= 80 (error) only fires if a change makes
   chains categorically more recognizable.  @lint fails CI on any error. *)
let error_threshold = 80.0
let warning_threshold = 60.0

let run ~(rewritten : Image.t) (audit : A.t) : t =
  let lo = audit.A.a_pool_lo and hi = audit.A.a_pool_hi in
  let ret_density, popret_per_kib = pool_signals rewritten ~lo ~hi in
  let funcs =
    List.map
      (func_score ~pool_lo:lo ~pool_hi:hi ~ret_density ~popret_per_kib)
      audit.A.a_funcs
  in
  let findings =
    List.map
      (fun fs ->
         let severity =
           if fs.fs_score >= error_threshold then F.Error
           else if fs.fs_score >= warning_threshold then F.Warning
           else F.Info
         in
         F.make ~severity ~func:fs.fs_name "stealth-score"
           (Printf.sprintf
              "detectability %.1f/100 (slots=%.2f reuse=%.2f cluster=%.2f \
               retwin=%.2f popret=%.1f/KiB over %d slots)"
              fs.fs_score fs.fs_slot_frac fs.fs_reuse fs.fs_clustering
              ret_density popret_per_kib fs.fs_slots))
      funcs
  in
  { sl_funcs = funcs; sl_ret_density = ret_density;
    sl_popret_per_kib = popret_per_kib; sl_findings = findings }
