package ingest

import (
	"math"
	"sort"

	"rainshine/internal/failure"
	"rainshine/internal/ticket"
)

// TicketBounds describe the observation window and fleet extent a
// ticket stream must fit inside. Zero or negative bounds disable the
// corresponding range check (external streams often lack a known fleet).
type TicketBounds struct {
	Days  int
	Racks int
	DCs   int
}

// ValidateTicket classifies one ticket against the taxonomy, returning
// the sentinel error of the first defect found, or nil. Duplicate and
// ordering defects are stream-level and handled by ScrubTickets.
func ValidateTicket(t *ticket.Ticket, b TicketBounds) error {
	if b.Days > 0 && (t.Day < 0 || t.Day >= b.Days) {
		return ErrTicketOutOfRange
	}
	if b.Racks > 0 && (t.Rack < 0 || t.Rack >= b.Racks) {
		return ErrTicketOutOfRange
	}
	if b.DCs > 0 && (t.DC < 0 || t.DC >= b.DCs) {
		return ErrTicketOutOfRange
	}
	if t.Hour < 0 || t.Hour >= 24 || math.IsNaN(t.Hour) {
		return ErrTicketBadHour
	}
	if t.RepairHours < 0 || math.IsNaN(t.RepairHours) || math.IsInf(t.RepairHours, 0) {
		return ErrTicketBadRepair
	}
	if t.Fault < 0 || t.Fault >= ticket.NumFaults {
		return ErrTicketUnknownFault
	}
	return nil
}

// ScrubTickets runs the ticket stage: quarantine invalid records, drop
// exact duplicates, and restore per-device repeat counters that clock
// skew knocked out of time order. The input slice is not modified; the
// returned slice preserves the survivors' original stream order. When
// repair is false the stream is audited — every defect is counted but
// the input is returned unchanged.
func ScrubTickets(ts []ticket.Ticket, b TicketBounds, rep *Report, repair bool) []ticket.Ticket {
	rep.TicketsIn += len(ts)
	kept := make([]ticket.Ticket, 0, len(ts))
	seen := newTicketSet(len(ts))
	for i := range ts {
		if err := ValidateTicket(&ts[i], b); err != nil {
			rep.Quarantined[classOfTicketErr(err)]++
			continue
		}
		// Dedup on content: identical in every field but the ID.
		if !seen.add(ts, i) {
			rep.Quarantined[DuplicateTicket]++
			continue
		}
		kept = append(kept, ts[i])
	}
	repairRepeats(kept, rep)
	rep.TicketsKept += len(kept)
	if !repair {
		return ts
	}
	return kept
}

// ticketSet is a flat open-addressing set of ticket indices, the dedup
// table of ScrubTickets. Each slot holds 1 + the index of the first
// ticket seen with some content (0 is an empty slot); linear probing at
// a load factor of at most 1/2.
type ticketSet struct {
	slots []int32
	mask  uint64
}

func newTicketSet(n int) ticketSet {
	size := 2
	for size < 2*n {
		size <<= 1
	}
	return ticketSet{slots: make([]int32, size), mask: uint64(size - 1)}
}

// add inserts ts[i] and reports true, unless a ticket with the same
// content is already in the set.
func (s ticketSet) add(ts []ticket.Ticket, i int) bool {
	t := &ts[i]
	for p := contentHash(t) & s.mask; ; p = (p + 1) & s.mask {
		j := s.slots[p]
		if j == 0 {
			s.slots[p] = int32(i + 1)
			return true
		}
		if sameContent(&ts[j-1], t) {
			return false
		}
	}
}

// sameContent reports whether two tickets agree in every field but the
// ID, under == (so -0 equals +0, as it did for map keys).
func sameContent(a, b *ticket.Ticket) bool {
	x, y := *a, *b
	x.ID, y.ID = 0, 0
	return x == y
}

// contentHash mixes the fields that tell most tickets apart. Tickets
// differing only in the others collide and are told apart by
// sameContent. Equal content must hash equal, so both zeros of Hour
// hash alike.
func contentHash(t *ticket.Ticket) uint64 {
	h := math.Float64bits(t.Hour)
	if t.Hour == 0 {
		h = 0
	}
	h ^= uint64(t.Day)*0x9e3779b97f4a7c15 ^ uint64(t.Rack)<<40 ^ uint64(t.Device)<<20 ^ uint64(t.Fault)
	// splitmix64's finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// classOfTicketErr maps a per-ticket sentinel back to its class.
func classOfTicketErr(err error) Class {
	switch err {
	case ErrTicketOutOfRange:
		return TicketOutOfRange
	case ErrTicketBadHour:
		return TicketBadHour
	case ErrTicketBadRepair:
		return TicketBadRepair
	default:
		return TicketUnknownFault
	}
}

// repairRepeats restores the RMA re-open counters: within one device's
// ticket group, Repeat must count occurrences in time order. Clock skew
// moves a ticket in time without touching its counter, so an inversion
// (an earlier timestamp carrying a later counter) marks a skewed record.
// Counters are reassigned in time order; clean streams are untouched.
func repairRepeats(ts []ticket.Ticket, rep *Report) {
	type deviceKey struct {
		rack   int
		comp   failure.Component
		device int
	}
	groups := map[deviceKey][]int{}
	for i := range ts {
		if ts[i].Repeat == 0 {
			continue // non-hardware tickets carry no counter
		}
		k := deviceKey{ts[i].Rack, ts[i].Component, ts[i].Device}
		groups[k] = append(groups[k], i)
	}
	for _, idxs := range groups {
		sort.SliceStable(idxs, func(a, b int) bool {
			ta, tb := &ts[idxs[a]], &ts[idxs[b]]
			if ta.Day != tb.Day {
				return ta.Day < tb.Day
			}
			if ta.Hour != tb.Hour {
				return ta.Hour < tb.Hour
			}
			return ta.ID < tb.ID
		})
		for occ, i := range idxs {
			if ts[i].Repeat != occ+1 {
				rep.Repaired[RepeatInversion]++
				ts[i].Repeat = occ + 1
			}
		}
	}
}
