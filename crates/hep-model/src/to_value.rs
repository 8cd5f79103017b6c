//! Bridging event structs ↔ dynamic values ↔ columnar tables.
//!
//! Two ways from an [`Event`] to a table row, one result:
//!
//! * [`write_event`] shreds the event straight into a
//!   [`TableBuilder`]'s leaf buffers through a [`RowWriter`] — no
//!   [`Value`] tree, no per-leaf path lookups. [`events_to_table`] and
//!   [`crate::generator::build_sharded_table`] use it.
//! * [`event_to_value`] builds the dynamic row that
//!   [`TableBuilder::append`] takes: the generic row API, and the oracle
//!   the typed shredder is tested against, chunk for chunk.

use nested_value::Value;
use nf2_columnar::{ColumnarError, RowWriter, Table, TableBuilder};

use crate::event::{Electron, Event, Jet, Met, Muon, Photon, Tau};
use crate::schema::event_schema;

/// Converts an event into the [`Value`] shape declared by
/// [`crate::schema::event_schema`].
pub fn event_to_value(e: &Event) -> Value {
    Value::struct_from(vec![
        ("run", Value::Int(e.run as i64)),
        ("luminosityBlock", Value::Int(e.luminosity_block as i64)),
        ("event", Value::Int(e.event as i64)),
        ("MET", met_to_value(&e.met)),
        (
            "Jet",
            Value::array(e.jets.iter().map(jet_to_value).collect()),
        ),
        (
            "Muon",
            Value::array(e.muons.iter().map(muon_to_value).collect()),
        ),
        (
            "Electron",
            Value::array(e.electrons.iter().map(electron_to_value).collect()),
        ),
        (
            "Photon",
            Value::array(e.photons.iter().map(photon_to_value).collect()),
        ),
        (
            "Tau",
            Value::array(e.taus.iter().map(tau_to_value).collect()),
        ),
    ])
}

fn met_to_value(m: &Met) -> Value {
    Value::struct_from(vec![
        ("pt", Value::Float(m.pt)),
        ("phi", Value::Float(m.phi)),
        ("sumet", Value::Float(m.sumet)),
        ("significance", Value::Float(m.significance)),
        ("CovXX", Value::Float(m.cov_xx)),
        ("CovXY", Value::Float(m.cov_xy)),
        ("CovYY", Value::Float(m.cov_yy)),
    ])
}

fn jet_to_value(j: &Jet) -> Value {
    Value::struct_from(vec![
        ("pt", Value::Float(j.pt)),
        ("eta", Value::Float(j.eta)),
        ("phi", Value::Float(j.phi)),
        ("mass", Value::Float(j.mass)),
        ("btag", Value::Float(j.btag)),
        ("puId", Value::Bool(j.pu_id)),
    ])
}

fn muon_to_value(m: &Muon) -> Value {
    Value::struct_from(vec![
        ("pt", Value::Float(m.pt)),
        ("eta", Value::Float(m.eta)),
        ("phi", Value::Float(m.phi)),
        ("mass", Value::Float(m.mass)),
        ("charge", Value::Int(m.charge as i64)),
        ("pfRelIso03_all", Value::Float(m.pf_rel_iso03_all)),
        ("pfRelIso04_all", Value::Float(m.pf_rel_iso04_all)),
        ("tightId", Value::Bool(m.tight_id)),
        ("softId", Value::Bool(m.soft_id)),
        ("dxy", Value::Float(m.dxy)),
        ("dxyErr", Value::Float(m.dxy_err)),
        ("dz", Value::Float(m.dz)),
        ("dzErr", Value::Float(m.dz_err)),
        ("jetIdx", Value::Int(m.jet_idx as i64)),
        ("genPartIdx", Value::Int(m.gen_part_idx as i64)),
    ])
}

fn electron_to_value(e: &Electron) -> Value {
    Value::struct_from(vec![
        ("pt", Value::Float(e.pt)),
        ("eta", Value::Float(e.eta)),
        ("phi", Value::Float(e.phi)),
        ("mass", Value::Float(e.mass)),
        ("charge", Value::Int(e.charge as i64)),
        ("pfRelIso03_all", Value::Float(e.pf_rel_iso03_all)),
        ("dxy", Value::Float(e.dxy)),
        ("dxyErr", Value::Float(e.dxy_err)),
        ("dz", Value::Float(e.dz)),
        ("dzErr", Value::Float(e.dz_err)),
        ("cutBased", Value::Int(e.cut_based as i64)),
        ("pfId", Value::Bool(e.pf_id)),
        ("jetIdx", Value::Int(e.jet_idx as i64)),
        ("genPartIdx", Value::Int(e.gen_part_idx as i64)),
    ])
}

fn photon_to_value(p: &Photon) -> Value {
    Value::struct_from(vec![
        ("pt", Value::Float(p.pt)),
        ("eta", Value::Float(p.eta)),
        ("phi", Value::Float(p.phi)),
        ("mass", Value::Float(p.mass)),
        ("charge", Value::Int(p.charge as i64)),
        ("pfRelIso03_all", Value::Float(p.pf_rel_iso03_all)),
        ("jetIdx", Value::Int(p.jet_idx as i64)),
        ("genPartIdx", Value::Int(p.gen_part_idx as i64)),
    ])
}

fn tau_to_value(t: &Tau) -> Value {
    Value::struct_from(vec![
        ("pt", Value::Float(t.pt)),
        ("eta", Value::Float(t.eta)),
        ("phi", Value::Float(t.phi)),
        ("mass", Value::Float(t.mass)),
        ("charge", Value::Int(t.charge as i64)),
        ("decayMode", Value::Int(t.decay_mode as i64)),
        ("relIso_all", Value::Float(t.rel_iso_all)),
        ("idIsoRaw", Value::Float(t.id_iso_raw)),
        ("jetIdx", Value::Int(t.jet_idx as i64)),
        ("genPartIdx", Value::Int(t.gen_part_idx as i64)),
    ])
}

/// Shreds one event into a row of [`crate::schema::event_schema`]: its
/// leaves in schema order, one [`RowWriter::list`] per particle
/// collection. Measured quantities are stored as `Float32`, exactly as
/// the [`event_to_value`] row is.
pub fn write_event(w: &mut RowWriter<'_>, e: &Event) {
    w.i64(e.run as i64);
    w.i64(e.luminosity_block as i64);
    w.i64(e.event as i64);
    let m = &e.met;
    floats(w, [m.pt, m.phi, m.sumet, m.significance]);
    floats(w, [m.cov_xx, m.cov_xy, m.cov_yy]);
    w.list(&e.jets, |w, j| {
        floats(w, [j.pt, j.eta, j.phi, j.mass, j.btag]);
        w.bool(j.pu_id);
    });
    w.list(&e.muons, |w, m| {
        floats(w, [m.pt, m.eta, m.phi, m.mass]);
        w.i32(m.charge);
        floats(w, [m.pf_rel_iso03_all, m.pf_rel_iso04_all]);
        w.bool(m.tight_id);
        w.bool(m.soft_id);
        floats(w, [m.dxy, m.dxy_err, m.dz, m.dz_err]);
        w.i32(m.jet_idx);
        w.i32(m.gen_part_idx);
    });
    w.list(&e.electrons, |w, el| {
        floats(w, [el.pt, el.eta, el.phi, el.mass]);
        w.i32(el.charge);
        floats(
            w,
            [el.pf_rel_iso03_all, el.dxy, el.dxy_err, el.dz, el.dz_err],
        );
        w.i32(el.cut_based);
        w.bool(el.pf_id);
        w.i32(el.jet_idx);
        w.i32(el.gen_part_idx);
    });
    w.list(&e.photons, |w, p| {
        floats(w, [p.pt, p.eta, p.phi, p.mass]);
        w.i32(p.charge);
        w.f32(p.pf_rel_iso03_all as f32);
        w.i32(p.jet_idx);
        w.i32(p.gen_part_idx);
    });
    w.list(&e.taus, |w, t| {
        floats(w, [t.pt, t.eta, t.phi, t.mass]);
        w.i32(t.charge);
        w.i32(t.decay_mode);
        floats(w, [t.rel_iso_all, t.id_iso_raw]);
        w.i32(t.jet_idx);
        w.i32(t.gen_part_idx);
    });
}

/// Consecutive `Float32` leaves.
fn floats<const N: usize>(w: &mut RowWriter<'_>, xs: [f64; N]) {
    for x in xs {
        w.f32(x as f32);
    }
}

/// Materializes events into a columnar [`Table`], shredding each one
/// with [`write_event`].
pub fn events_to_table(events: &[Event], row_group_size: usize) -> Result<Table, ColumnarError> {
    let mut b = TableBuilder::new(crate::schema::TABLE_NAME, event_schema()?, row_group_size);
    for e in events {
        b.write_row(|w| write_event(w, e))?;
    }
    Ok(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Generator, GeneratorConfig};

    #[test]
    fn generated_events_fit_schema() {
        let events: Vec<Event> = Generator::new(GeneratorConfig::default(), 42)
            .take(200)
            .collect();
        let t = events_to_table(&events, 64).unwrap();
        assert_eq!(t.n_rows(), 200);
        assert_eq!(t.row_groups().len(), 4);
    }

    #[test]
    fn table_roundtrips_event_values() {
        let events: Vec<Event> = Generator::new(GeneratorConfig::default(), 7)
            .take(50)
            .collect();
        let t = events_to_table(&events, 32).unwrap();
        let leaves: Vec<_> = t.schema().leaves().iter().collect();
        let mut got = Vec::new();
        for g in t.row_groups() {
            got.extend(g.read_rows(t.schema(), &leaves).unwrap());
        }
        let expect: Vec<Value> = events.iter().map(event_to_value).collect();
        // The generator quantizes measured floats to f32, so storage must
        // round-trip values exactly.
        assert_eq!(got, expect);
    }

    #[test]
    fn read_table_rejects_non_monotone_offsets() {
        let events: Vec<Event> = Generator::new(GeneratorConfig::default(), 11)
            .take(64)
            .collect();
        let t = events_to_table(&events, 64).unwrap();
        let mut buf = Vec::new();
        nf2_columnar::file::write_table(&t, &mut buf).unwrap();
        // The first row group's `Jet.pt` column: path (len u32 + bytes),
        // ptype and has-offsets tags, offsets count u64, then the offsets.
        let key = [&6u32.to_le_bytes()[..], b"Jet.pt"].concat();
        let at = buf.windows(key.len()).position(|w| w == key).unwrap();
        let offsets = at + key.len() + 2 + 8;
        let low = offsets + 4 * 5;
        assert!(buf[low] < 0xff, "offsets[5] is a small entry count");
        buf[low] = 0xff;
        assert!(matches!(
            nf2_columnar::file::read_table(&mut &buf[..]),
            Err(ColumnarError::Format(_))
        ));
    }
}
