package calendar

import (
	"testing"
	"time"
)

func TestEpochProperties(t *testing.T) {
	// 1 Jan 2012 was a Sunday.
	if Weekday(0) != 0 {
		t.Errorf("day 0 weekday = %d, want 0 (Sunday)", Weekday(0))
	}
	if !IsWeekend(0) {
		t.Error("day 0 should be weekend")
	}
	if IsWeekend(2) { // Tuesday
		t.Error("day 2 should be a weekday")
	}
	if Month(0) != 0 || YearIndex(0) != 0 || DayOfYear(0) != 0 {
		t.Errorf("day 0 = month %d year %d doy %d", Month(0), YearIndex(0), DayOfYear(0))
	}
}

func TestLeapYear2012(t *testing.T) {
	// 2012 is a leap year: day 59 is Feb 29, day 60 is Mar 1.
	if got := Date(59); got.Month() != time.February || got.Day() != 29 {
		t.Errorf("day 59 = %v, want Feb 29", got)
	}
	if Month(60) != 2 {
		t.Errorf("day 60 month = %d, want 2 (March)", Month(60))
	}
	// Day 366 is 1 Jan 2013.
	if YearIndex(366) != 1 || Month(366) != 0 {
		t.Errorf("day 366 = year %d month %d", YearIndex(366), Month(366))
	}
}

func TestWeekdayCycles(t *testing.T) {
	for d := 0; d < 365; d++ {
		if Weekday(d) != (Weekday(0)+d)%7 {
			t.Fatalf("weekday not cyclic at day %d", d)
		}
	}
}

func TestNameTables(t *testing.T) {
	if len(WeekdayNames) != 7 || WeekdayNames[0] != "Sun" || WeekdayNames[6] != "Sat" {
		t.Errorf("WeekdayNames = %v", WeekdayNames)
	}
	if len(MonthNames) != 12 || MonthNames[0] != "Jan" || MonthNames[11] != "Dec" {
		t.Errorf("MonthNames = %v", MonthNames)
	}
}

func TestYearIndexAcrossWindow(t *testing.T) {
	// The 930-day window spans 2012 (366d), 2013 (365d), and part of 2014.
	if YearIndex(365) != 0 {
		t.Error("day 365 should still be 2012")
	}
	if YearIndex(366+364) != 1 {
		t.Error("day 730 should be 2013")
	}
	if YearIndex(731) != 2 {
		t.Error("day 731 should be 2014")
	}
}

func TestWeekOfYear(t *testing.T) {
	if WeekOfYear(0) != 0 || WeekOfYear(6) != 0 || WeekOfYear(7) != 1 {
		t.Errorf("week boundaries: %d %d %d", WeekOfYear(0), WeekOfYear(6), WeekOfYear(7))
	}
	// Day 364 of a leap year is week 52; the spill day clamps to 52.
	if WeekOfYear(364) != 52 || WeekOfYear(365) != 52 {
		t.Errorf("year-end weeks: %d %d", WeekOfYear(364), WeekOfYear(365))
	}
	// Resets with the new year.
	if WeekOfYear(366) != 0 {
		t.Errorf("new year week = %d", WeekOfYear(366))
	}
	names := WeekNames()
	if len(names) != 53 || names[0] != "W01" || names[52] != "W53" {
		t.Errorf("WeekNames = %v...", names[:2])
	}
}

// TestArithmeticMatchesTime pins every integer accessor to the time
// package's answer for each day within ±800,000 days (about ±2,190
// years) of the epoch. Commission days run up to five years before the
// epoch, so negative offsets are exercised on purpose.
func TestArithmeticMatchesTime(t *testing.T) {
	const span = 800_000
	date := Date(-span)
	for day := -span; day <= span; day++ {
		wantWeek := (date.YearDay() - 1) / 7
		if wantWeek > 52 {
			wantWeek = 52
		}
		if Weekday(day) != int(date.Weekday()) ||
			IsWeekend(day) != (date.Weekday() == time.Saturday || date.Weekday() == time.Sunday) ||
			Month(day) != int(date.Month())-1 ||
			YearIndex(day) != date.Year()-Epoch.Year() ||
			DayOfYear(day) != date.YearDay()-1 ||
			WeekOfYear(day) != wantWeek {
			t.Fatalf("day %d (%s): weekday %d month %d year %d doy %d week %d",
				day, date.Format("2006-01-02"), Weekday(day), Month(day), YearIndex(day), DayOfYear(day), WeekOfYear(day))
		}
		date = date.Add(24 * time.Hour)
	}
}
