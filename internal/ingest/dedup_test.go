package ingest

import (
	"fmt"
	"math"
	"testing"

	"rainshine/internal/failure"
	"rainshine/internal/rng"
	"rainshine/internal/ticket"
)

// mapScrubTickets is the map-keyed scrub ScrubTickets replaced, kept as
// the test oracle for its flat dedup table.
func mapScrubTickets(ts []ticket.Ticket, b TicketBounds, rep *Report, repair bool) []ticket.Ticket {
	rep.TicketsIn += len(ts)
	kept := make([]ticket.Ticket, 0, len(ts))
	seen := make(map[ticket.Ticket]bool, len(ts))
	for _, t := range ts {
		if err := ValidateTicket(&t, b); err != nil {
			rep.Quarantined[classOfTicketErr(err)]++
			continue
		}
		key := t
		key.ID = 0
		if seen[key] {
			rep.Quarantined[DuplicateTicket]++
			continue
		}
		seen[key] = true
		kept = append(kept, t)
	}
	repairRepeats(kept, rep)
	rep.TicketsKept += len(kept)
	if !repair {
		return ts
	}
	return kept
}

// assertScrubMatchesMap runs both scrubs, audit and repair, and fails
// unless the reports and the returned streams agree. Tickets are
// compared by their %+v text, which tells -0 from +0, so the kept copy
// of a duplicate group must be the very first one.
func assertScrubMatchesMap(t *testing.T, ts []ticket.Ticket, b TicketBounds) {
	t.Helper()
	for _, repair := range []bool{false, true} {
		var got, want Report
		gotOut := ScrubTickets(append([]ticket.Ticket(nil), ts...), b, &got, repair)
		wantOut := mapScrubTickets(append([]ticket.Ticket(nil), ts...), b, &want, repair)
		if got != want {
			t.Fatalf("repair=%v bounds=%+v: report\n got %+v\nwant %+v", repair, b, got, want)
		}
		if len(gotOut) != len(wantOut) {
			t.Fatalf("repair=%v bounds=%+v: kept %d, want %d", repair, b, len(gotOut), len(wantOut))
		}
		for i := range gotOut {
			if g, w := fmt.Sprintf("%+v", gotOut[i]), fmt.Sprintf("%+v", wantOut[i]); g != w {
				t.Fatalf("repair=%v bounds=%+v: ticket %d\n got %s\nwant %s", repair, b, i, g, w)
			}
		}
	}
}

// dedupStream builds a seeded ticket stream laced with every case the
// dedup table must get right: exact duplicates, ID-only differences,
// one-field differences, signed zeros in Hour and RepairHours, full
// hash collisions (tickets that differ only in fields contentHash does
// not read), and records validation quarantines before dedup sees them.
func dedupStream(seed uint64, n int) []ticket.Ticket {
	src := rng.New(seed)
	negZero := math.Copysign(0, -1)
	var ts []ticket.Ticket
	push := func(tk ticket.Ticket) {
		tk.ID = len(ts)
		ts = append(ts, tk)
	}
	for len(ts) < n {
		base := ticket.Ticket{
			Day:         src.IntN(40) - 5,
			Hour:        float64(src.IntN(8)) * 3.25,
			DC:          src.IntN(2),
			Rack:        src.IntN(12) - 1,
			Fault:       ticket.Fault(src.IntN(int(ticket.NumFaults) + 1)),
			RepairHours: float64(src.IntN(5)),
			Component:   failure.Component(src.IntN(int(failure.NumComponents))),
			Device:      src.IntN(4),
			Repeat:      src.IntN(3),
		}
		push(base)
		switch src.IntN(8) {
		case 0: // exact duplicate, later ID: a double-submitted RMA
			push(base)
		case 1: // the same record re-sent twice more
			push(base)
			push(base)
		case 2: // one field differs: distinct content
			v := base
			switch src.IntN(11) {
			case 0:
				v.Day++
			case 1:
				v.Hour += 0.5
			case 2:
				v.DC ^= 1
			case 3:
				v.Rack++
			case 4:
				v.Fault = (v.Fault + 1) % ticket.NumFaults
			case 5:
				v.FalsePositive = !v.FalsePositive
			case 6:
				v.RepairHours++
			case 7:
				v.Component = (v.Component + 1) % failure.NumComponents
			case 8:
				v.Device++
			case 9:
				v.Repeat++
			default:
				v.Hour = math.NaN() // quarantined before dedup
			}
			push(v)
		case 3: // signed zeros: == treats -0 and +0 as one value
			v := base
			v.Hour, v.RepairHours = 0, 0
			w := v
			w.Hour, w.RepairHours = negZero, negZero
			if src.IntN(2) == 0 {
				v, w = w, v
			}
			push(v)
			push(w)
		case 4: // hash collision: same hashed fields, other fields differ
			v := base
			v.DC ^= 1
			v.RepairHours += 7
			v.FalsePositive = !v.FalsePositive
			v.Component = (v.Component + 1) % failure.NumComponents
			v.Repeat += 2
			push(v)
			push(base)
			push(v)
		}
	}
	return ts
}

func TestScrubTicketsMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		ts := dedupStream(seed, 300+int(seed)*40)
		for _, b := range []TicketBounds{{}, {Days: 30, Racks: 10, DCs: 2}, {Days: 1}} {
			assertScrubMatchesMap(t, ts, b)
		}
	}
	// The empty stream and a single ticket.
	assertScrubMatchesMap(t, nil, TicketBounds{})
	assertScrubMatchesMap(t, []ticket.Ticket{{Hour: 1}}, TicketBounds{})
}

// TestContentHashCollisions pins what the oracle test's collision case
// relies on: tickets that differ only outside the hashed fields share a
// hash, and both zeros of Hour hash alike.
func TestContentHashCollisions(t *testing.T) {
	a := ticket.Ticket{Day: 3, Hour: 4.5, Rack: 2, Fault: ticket.DiskFailure, Device: 1}
	b := a
	b.ID, b.DC, b.RepairHours, b.FalsePositive, b.Component, b.Repeat = 9, 1, 7, true, failure.DIMM, 2
	if contentHash(&a) != contentHash(&b) {
		t.Fatal("tickets differing only in unhashed fields should collide")
	}
	if sameContent(&a, &b) {
		t.Fatal("colliding tickets with different content compared equal")
	}
	z, nz := a, a
	z.Hour, nz.Hour = 0, math.Copysign(0, -1)
	if contentHash(&z) != contentHash(&nz) || !sameContent(&z, &nz) {
		t.Fatal("-0 and +0 hours must hash and compare alike")
	}
	// Many colliding tickets in a tiny table: every probe chain wraps.
	var ts []ticket.Ticket
	for i := 0; i < 40; i++ {
		v := a
		v.ID, v.Repeat = i, i%20
		ts = append(ts, v)
	}
	assertScrubMatchesMap(t, ts, TicketBounds{})
}

// FuzzScrubTicketsMatchesMap decodes arbitrary bytes into a ticket
// stream over tiny value ranges, so duplicates, collisions and signed
// zeros are common, and checks the flat dedup table against the map.
func FuzzScrubTicketsMatchesMap(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 9, 3, 1, 255, 128, 64, 7, 9, 3, 1, 255, 128, 64, 7, 9, 3, 1, 254, 128, 64, 7})
	hours := []float64{0, math.Copysign(0, -1), 1.5, 23.75, 24, math.NaN(), -1}
	repairs := []float64{0, math.Copysign(0, -1), 2, -1, math.Inf(1), 0.5}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		bounds := []TicketBounds{{}, {Days: 3, Racks: 3, DCs: 2}, {Days: 2}}[int(in[0])%3]
		var ts []ticket.Ticket
		for in = in[1:]; len(in) >= 4; in = in[4:] {
			a, b, c, d := int(in[0]), int(in[1]), int(in[2]), int(in[3])
			ts = append(ts, ticket.Ticket{
				ID:            len(ts),
				Day:           a%5 - 1,
				Hour:          hours[(a/5)%len(hours)],
				DC:            b % 3,
				Rack:          (b / 3) % 4,
				Fault:         ticket.Fault(c % (int(ticket.NumFaults) + 2)),
				FalsePositive: c&0x80 != 0,
				RepairHours:   repairs[d%len(repairs)],
				Component:     failure.Component((d / 8) % int(failure.NumComponents)),
				Device:        (d / 32) % 2,
				Repeat:        (d / 64) % 3,
			})
		}
		assertScrubMatchesMap(t, ts, bounds)
	})
}
